#include "common/date.h"

#include <gtest/gtest.h>

namespace nipo {
namespace {

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(DateToDayNumber(Date{1970, 1, 1}), 0);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DateToDayNumber(Date{1970, 1, 2}), 1);
  EXPECT_EQ(DateToDayNumber(Date{1969, 12, 31}), -1);
  EXPECT_EQ(DateToDayNumber(Date{2000, 1, 1}), 10957);
  EXPECT_EQ(DateToDayNumber(Date{1992, 1, 1}), 8035);
}

TEST(DateTest, ConsecutiveCalendarDaysGetConsecutiveNumbers) {
  // Walk every day from 1890 to 2110 (the 1900 and 2100 non-leap
  // centuries and the 2000 leap century included) with the Gregorian
  // month lengths; each day must number exactly one past the previous.
  constexpr int32_t kDays[12] = {31, 28, 31, 30, 31, 30,
                                 31, 31, 30, 31, 30, 31};
  DayNumber prev = DateToDayNumber(Date{1889, 12, 31});
  for (int32_t year = 1890; year <= 2110; ++year) {
    const bool leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    for (int32_t month = 1; month <= 12; ++month) {
      const int32_t days = kDays[month - 1] + (month == 2 && leap ? 1 : 0);
      for (int32_t day = 1; day <= days; ++day) {
        const DayNumber d = DateToDayNumber(Date{year, month, day});
        ASSERT_EQ(d, prev + 1) << year << "-" << month << "-" << day;
        prev = d;
      }
    }
  }
}

TEST(DateTest, LeapDays) {
  auto feb28_to_mar1 = [](int32_t year) {
    return DateToDayNumber(Date{year, 3, 1}) -
           DateToDayNumber(Date{year, 2, 28});
  };
  EXPECT_EQ(feb28_to_mar1(1992), 2);
  EXPECT_EQ(feb28_to_mar1(2000), 2);
  EXPECT_EQ(feb28_to_mar1(1900), 1);
  EXPECT_EQ(feb28_to_mar1(1995), 1);
}

TEST(DateTest, FormatPadsFields) {
  EXPECT_EQ(FormatDate(Date{1994, 2, 3}), "1994-02-03");
  EXPECT_EQ(FormatDate(Date{1998, 12, 31}), "1998-12-31");
}

TEST(DateTest, TpchWindow) {
  EXPECT_EQ(TpchStartDay(), DateToDayNumber(Date{1992, 1, 1}));
  EXPECT_EQ(TpchEndDay(), DateToDayNumber(Date{1998, 12, 31}));
  EXPECT_LT(TpchStartDay(), TpchEndDay());
  // The canonical 7-year window spans 2557 days.
  EXPECT_EQ(TpchEndDay() - TpchStartDay(), 2556);
}

}  // namespace
}  // namespace nipo
