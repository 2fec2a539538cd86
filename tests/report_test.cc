#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace nipo {
namespace {

PmuCounters SampleCounters() {
  PmuCounters c;
  c.instructions = 1000;
  c.branches = 200;
  c.branches_taken = 150;
  c.branches_not_taken = 50;
  c.mispredictions = 12;
  c.l3_accesses = 33;
  c.cycles = 5000;
  return c;
}

TEST(ReportTest, FormatOrder) {
  EXPECT_EQ(FormatOrder({3, 1, 0, 2}), "3,1,0,2");
  EXPECT_EQ(FormatOrder({}), "");
  EXPECT_EQ(FormatOrder({7}), "7");
}

TEST(ReportTest, PrintDriveResult) {
  DriveResult drive;
  drive.input_tuples = 100;
  drive.qualifying_tuples = 25;
  drive.aggregate = 123.5;
  drive.num_vectors = 4;
  drive.simulated_msec = 1.25;
  drive.total = SampleCounters();
  std::ostringstream out;
  PrintDriveResult(drive, "drive", out);
  const std::string s = out.str();
  EXPECT_NE(s.find("qualifying tuples"), std::string::npos);
  EXPECT_NE(s.find("25"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
}

TEST(ReportTest, PrintProgressiveReportIncludesTrace) {
  ProgressiveReport report;
  report.drive.input_tuples = 10;
  report.num_optimizations = 2;
  report.final_order = {1, 0};
  report.last_estimate = {0.25, 0.75};
  PeoChange change;
  change.vector_index = 5;
  change.old_order = {0, 1};
  change.new_order = {1, 0};
  change.predicted_old_cycles = 21.75;
  change.predicted_new_cycles = 17.25;
  change.margin = 0.056;
  change.reverted = true;
  report.changes.push_back(change);
  std::ostringstream out;
  PrintProgressiveReport(report, "prog", out);
  const std::string s = out.str();
  EXPECT_NE(s.find("PEO trace"), std::string::npos);
  EXPECT_NE(s.find("0,1"), std::string::npos);
  EXPECT_NE(s.find("1,0"), std::string::npos);
  EXPECT_NE(s.find("reverted"), std::string::npos);
  EXPECT_NE(s.find("old cyc/tup"), std::string::npos);
  EXPECT_NE(s.find("21.75"), std::string::npos);
  EXPECT_NE(s.find("17.25"), std::string::npos);
  EXPECT_NE(s.find("0.056"), std::string::npos);
  EXPECT_NE(s.find("final order: 1,0"), std::string::npos);
  EXPECT_NE(s.find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace nipo
