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

TEST(ReportTest, PrintCountersListsEveryCounter) {
  std::ostringstream out;
  PrintCounters(SampleCounters(), "counters", out);
  const std::string s = out.str();
  EXPECT_NE(s.find("instructions"), std::string::npos);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_NE(s.find("branches_not_taken"), std::string::npos);
  EXPECT_NE(s.find("prefetch_requests"), std::string::npos);
  EXPECT_NE(s.find("cycles"), std::string::npos);
}

TEST(ReportTest, CountersCsvRoundTrip) {
  std::ostringstream out;
  WriteCountersCsv(SampleCounters(), out);
  const std::string s = out.str();
  EXPECT_NE(s.find("counter,value\n"), std::string::npos);
  EXPECT_NE(s.find("mispredictions,12\n"), std::string::npos);
  EXPECT_NE(s.find("cycles,5000\n"), std::string::npos);
  EXPECT_NE(s.find("l3_evictions_suffered,"), std::string::npos);
  // 17 counters + header.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 18);
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
  change.reverted = true;
  report.changes.push_back(change);
  std::ostringstream out;
  PrintProgressiveReport(report, "prog", out);
  const std::string s = out.str();
  EXPECT_NE(s.find("PEO trace"), std::string::npos);
  EXPECT_NE(s.find("0,1"), std::string::npos);
  EXPECT_NE(s.find("1,0"), std::string::npos);
  EXPECT_NE(s.find("reverted"), std::string::npos);
  EXPECT_NE(s.find("final order: 1,0"), std::string::npos);
  EXPECT_NE(s.find("0.25"), std::string::npos);
  // Forms are unchanged here, so no forms cell is printed.
  EXPECT_EQ(s.find(" -> "), std::string::npos);
}

TEST(ReportTest, PrintProgressiveReportShowsFormsOnlyChange) {
  ProgressiveReport report;
  report.final_order = {0, 1};
  PeoChange change;
  change.vector_index = 9;
  change.old_order = {0, 1};
  change.new_order = {0, 1};
  change.old_forms = {PredicateForm::kBranching, PredicateForm::kBranching};
  change.new_forms = {PredicateForm::kBranchFree, PredicateForm::kBranching};
  report.changes.push_back(change);
  std::ostringstream out;
  PrintProgressiveReport(report, "prog", out);
  const std::string s = out.str();
  EXPECT_NE(s.find("forms"), std::string::npos);
  EXPECT_NE(s.find("B,B -> F,B"), std::string::npos);
}

}  // namespace
}  // namespace nipo
