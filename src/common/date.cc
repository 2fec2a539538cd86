#include "common/date.h"

#include <cstdio>

/// \file date.cc
/// Proleptic-Gregorian calendar arithmetic behind date.h: Hinnant's
/// days-from-civil and ISO formatting.

namespace nipo {

DayNumber DateToDayNumber(const Date& date) {
  // Hinnant's days_from_civil.
  int32_t y = date.year;
  const int32_t m = date.month;
  const int32_t d = date.day;
  y -= m <= 2;
  const int32_t era = (y >= 0 ? y : y - 399) / 400;
  const uint32_t yoe = static_cast<uint32_t>(y - era * 400);           // [0,399]
  const uint32_t doy =
      static_cast<uint32_t>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const uint32_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;          // [0,146096]
  return era * 146097 + static_cast<int32_t>(doe) - 719468;
}

std::string FormatDate(const Date& date) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", date.year, date.month,
                date.day);
  return buf;
}

DayNumber TpchStartDay() { return DateToDayNumber(Date{1992, 1, 1}); }
DayNumber TpchEndDay() { return DateToDayNumber(Date{1998, 12, 31}); }

}  // namespace nipo
