#include "cost/branch_model.h"

#include <gtest/gtest.h>

namespace nipo {
namespace {

const PredictorConfig kCfg = PredictorConfig::Symmetric(6);

TEST(BranchModelTest, SinglePredicateDirectionSplit) {
  const BranchEstimate e = EstimatePredicateBranches(kCfg, 1000.0, 0.3);
  EXPECT_DOUBLE_EQ(e.branches, 1000.0);
  EXPECT_DOUBLE_EQ(e.branches_not_taken, 300.0);  // qualifying tuples
  EXPECT_DOUBLE_EQ(e.branches_taken, 700.0);
  EXPECT_NEAR(e.mp, e.taken_mp + e.not_taken_mp, 1e-9);
}

TEST(BranchModelTest, ChainingShrinksInput) {
  // Predicate 2 sees only the tuples predicate 1 passed.
  const BranchEstimate e =
      EstimateScanBranches(kCfg, 1000.0, {0.5, 0.4});
  // BNT = 1000*0.5 + 500*0.4 = 700.
  EXPECT_DOUBLE_EQ(e.branches_not_taken, 700.0);
  // branches executed = 1000 + 500, plus 1000 back-edges.
  EXPECT_DOUBLE_EQ(e.branches, 2500.0);
  EXPECT_DOUBLE_EQ(e.branches_taken, 2500.0 - 700.0);
}

TEST(BranchModelTest, LoopBranchAddsAlwaysTakenPerTuple) {
  const BranchEstimate without = EstimatePredicateBranches(kCfg, 1000.0, 0.5);
  const BranchEstimate with = EstimateScanBranches(kCfg, 1000.0, {0.5});
  EXPECT_DOUBLE_EQ(with.branches - without.branches, 1000.0);
  EXPECT_DOUBLE_EQ(with.branches_taken - without.branches_taken, 1000.0);
  EXPECT_DOUBLE_EQ(with.branches_not_taken, without.branches_not_taken);
  EXPECT_DOUBLE_EQ(with.mp, without.mp);  // back-edge predicted perfectly
}

TEST(BranchModelTest, BranchesTakenIdentity) {
  // For a full scan, branches_taken = 2n - qualifying (paper Section
  // 2.2.1): n back-edges plus one taken branch per failing tuple.
  const std::vector<double> sel = {0.5, 0.4, 0.9};
  const double n = 10'000.0;
  const BranchEstimate e = EstimateScanBranches(kCfg, n, sel);
  const double qualifying = n * 0.5 * 0.4 * 0.9;
  EXPECT_NEAR(e.branches_taken, 2 * n - qualifying, 1e-6);
}

TEST(BranchModelTest, BntEqualsSumOfColumnAccesses) {
  // BNT of predicate k = tuples surviving k predicates = accesses to the
  // next column; the total is the Section 4.1 "definite integral".
  const std::vector<double> sel = {0.8, 0.7, 0.5};
  const double n = 1000.0;
  const BranchEstimate e = EstimateScanBranches(kCfg, n, sel);
  const double acc1 = n * 0.8, acc2 = acc1 * 0.7, acc3 = acc2 * 0.5;
  EXPECT_NEAR(e.branches_not_taken, acc1 + acc2 + acc3, 1e-9);
}

TEST(BranchModelTest, ZeroSelectivityOnlyFirstPredicateBranches) {
  const BranchEstimate e =
      EstimateScanBranches(kCfg, 1000.0, {0.0, 0.5, 0.5});
  // Predicate 1 and the back-edge only: later predicates never run.
  EXPECT_DOUBLE_EQ(e.branches, 2000.0);
  EXPECT_DOUBLE_EQ(e.branches_not_taken, 0.0);
}

TEST(BranchModelTest, AllPassSelectivityHasNoMispredictions) {
  const BranchEstimate e =
      EstimateScanBranches(kCfg, 1000.0, {1.0, 1.0});
  EXPECT_NEAR(e.mp, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(e.branches_not_taken, 2000.0);
}

TEST(BranchModelTest, OrderInvarianceOfTotalsButNotMispredictions) {
  // Totals of branches-not-taken differ across orders (that is the whole
  // optimization lever); check a concrete pair.
  const double n = 1000.0;
  const BranchEstimate cheap_first =
      EstimateScanBranches(kCfg, n, {0.1, 0.9});
  const BranchEstimate expensive_first =
      EstimateScanBranches(kCfg, n, {0.9, 0.1});
  // Output cardinality identical...
  EXPECT_NEAR(n * 0.1 * 0.9, n * 0.9 * 0.1, 1e-12);
  // ...but the cheap order evaluates far fewer branches.
  EXPECT_LT(cheap_first.branches, expensive_first.branches);
  EXPECT_LT(cheap_first.branches_not_taken,
            expensive_first.branches_not_taken);
}

class BranchModelSweep : public ::testing::TestWithParam<double> {};

TEST_P(BranchModelSweep, MispredictionsBoundedByBranchCount) {
  const double p = GetParam();
  const BranchEstimate e = EstimateScanBranches(kCfg, 5000.0, {p, p});
  EXPECT_GE(e.mp, 0.0);
  EXPECT_LE(e.taken_mp, e.branches_taken + 1e-9);
  EXPECT_LE(e.not_taken_mp, e.branches_not_taken + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BranchModelSweep,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                           0.7, 0.8, 0.9, 1.0));

}  // namespace
}  // namespace nipo
