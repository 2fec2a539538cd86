#include "common/table_printer.h"

#include <gtest/gtest.h>

#include <sstream>

namespace nipo {
namespace {

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(3.14, 3), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 3), "2");
  EXPECT_EQ(FormatDouble(0.5, 1), "0.5");
  EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
}

TEST(FormatDoubleTest, NegativeZeroNormalizes) {
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0");
}

TEST(FormatDoubleTest, RoundsAtPrecision) {
  EXPECT_EQ(FormatDouble(1.999, 2), "2");
  EXPECT_EQ(FormatDouble(0.126, 2), "0.13");
}

TEST(TablePrinterTest, AlignedOutputContainsAllCells) {
  TablePrinter t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  std::ostringstream out;
  t.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(TablePrinterTest, NumericRowsFormatted) {
  TablePrinter t("demo");
  t.SetHeader({"x", "y"});
  t.AddNumericRow({1.5, 2.0}, 2);
  std::ostringstream out;
  t.Print(out);
  // Trailing zeros are trimmed: 1.50 -> 1.5, 2.00 -> 2.
  EXPECT_NE(out.str().find("\n1.5  2\n"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TablePrinterDeathTest, RowArityMismatchAborts) {
  TablePrinter t("demo");
  t.SetHeader({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "NIPO_CHECK");
}

}  // namespace
}  // namespace nipo
