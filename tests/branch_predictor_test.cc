#include "hw/branch_predictor.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

TEST(PredictorConfigTest, Presets) {
  const PredictorConfig s6 = PredictorConfig::Symmetric(6);
  EXPECT_EQ(s6.num_states, 6);
  EXPECT_EQ(s6.not_taken_states, 3);
  const PredictorConfig p5t = PredictorConfig::PlusOneTaken(5);
  EXPECT_EQ(p5t.not_taken_states, 2);  // 2 NT + 3 T
  const PredictorConfig p5nt = PredictorConfig::PlusOneNotTaken(5);
  EXPECT_EQ(p5nt.not_taken_states, 3);  // 3 NT + 2 T
  EXPECT_TRUE(s6.Valid());
  EXPECT_FALSE((PredictorConfig{1, 0}.Valid()));
  EXPECT_FALSE((PredictorConfig{4, 4}.Valid()));
  EXPECT_FALSE((PredictorConfig{4, 0}.Valid()));
}

TEST(BranchPredictorTest, SaturatesTowardTaken) {
  BranchPredictor bp(PredictorConfig::Symmetric(4));
  bp.EnsureSites(1);
  for (int i = 0; i < 10; ++i) bp.Observe(0, true);
  EXPECT_EQ(bp.state(0), 3);  // strongly taken
  EXPECT_TRUE(bp.PredictsTaken(0));
  // After saturation, a taken branch is predicted correctly.
  EXPECT_FALSE(bp.Observe(0, true).mispredicted);
}

TEST(BranchPredictorTest, SaturatesTowardNotTaken) {
  BranchPredictor bp(PredictorConfig::Symmetric(4));
  bp.EnsureSites(1);
  for (int i = 0; i < 10; ++i) bp.Observe(0, false);
  EXPECT_EQ(bp.state(0), 0);
  EXPECT_FALSE(bp.PredictsTaken(0));
  EXPECT_FALSE(bp.Observe(0, false).mispredicted);
}

TEST(BranchPredictorTest, HysteresisSurvivesOneFlip) {
  // A 6-state predictor saturated taken should still predict taken after
  // one or two not-taken outcomes (that is the point of deep counters).
  BranchPredictor bp(PredictorConfig::Symmetric(6));
  bp.EnsureSites(1);
  for (int i = 0; i < 10; ++i) bp.Observe(0, true);
  bp.Observe(0, false);  // state 5 -> 4
  EXPECT_TRUE(bp.PredictsTaken(0));
  bp.Observe(0, false);  // 4 -> 3
  EXPECT_TRUE(bp.PredictsTaken(0));
  bp.Observe(0, false);  // 3 -> 2: crosses the boundary
  EXPECT_FALSE(bp.PredictsTaken(0));
}

TEST(BranchPredictorTest, MispredictionClassification) {
  BranchPredictor bp(PredictorConfig::Symmetric(2));
  bp.EnsureSites(1);
  // Drive to strongly-not-taken.
  bp.Observe(0, false);
  ASSERT_FALSE(bp.PredictsTaken(0));
  // Actual taken while predicting not-taken: a mispredicted taken branch.
  const BranchOutcome out = bp.Observe(0, true);
  EXPECT_TRUE(out.taken);
  EXPECT_TRUE(out.mispredicted);
}

TEST(BranchPredictorTest, SitesAreIndependent) {
  BranchPredictor bp(PredictorConfig::Symmetric(4));
  bp.EnsureSites(2);
  for (int i = 0; i < 10; ++i) {
    bp.Observe(0, true);
    bp.Observe(1, false);
  }
  EXPECT_TRUE(bp.PredictsTaken(0));
  EXPECT_FALSE(bp.PredictsTaken(1));
}

TEST(BranchPredictorTest, EnsureSitesGrowsWithoutClobbering) {
  BranchPredictor bp(PredictorConfig::Symmetric(4));
  bp.EnsureSites(1);
  for (int i = 0; i < 10; ++i) bp.Observe(0, true);
  bp.EnsureSites(3);
  EXPECT_EQ(bp.num_sites(), 3u);
  EXPECT_TRUE(bp.PredictsTaken(0));        // old state kept
  EXPECT_EQ(bp.state(1), 2);               // new sites start weakly taken
}

TEST(BranchPredictorTest, AlternatingPatternOnTwoStatePredictor) {
  // Alternating T/NT on a 2-state predictor mispredicts every branch once
  // warmed up -- the classic worst case.
  BranchPredictor bp(PredictorConfig::Symmetric(2));
  bp.EnsureSites(1);
  bool taken = false;
  // Warm up.
  for (int i = 0; i < 4; ++i) {
    bp.Observe(0, taken);
    taken = !taken;
  }
  int mispredicted = 0;
  for (int i = 0; i < 100; ++i) {
    if (bp.Observe(0, taken).mispredicted) ++mispredicted;
    taken = !taken;
  }
  EXPECT_EQ(mispredicted, 100);
}

class PredictorSelectivityTest : public ::testing::TestWithParam<double> {};

TEST_P(PredictorSelectivityTest, MispredictionRateBoundedByMinPOneMinusP) {
  // For random i.i.d. outcomes, any sane predictor's long-run
  // misprediction rate lies between min(p, 1-p) (the Bayes rate) and 2 *
  // min(p, 1-p) (worst constant-prediction penalty); check the simulated
  // 6-state unit obeys this at every selectivity.
  const double p = GetParam();  // probability branch NOT taken
  BranchPredictor bp(PredictorConfig::Symmetric(6));
  bp.EnsureSites(1);
  Prng prng(42);
  const int kWarmup = 1000, kSamples = 200'000;
  for (int i = 0; i < kWarmup; ++i) bp.Observe(0, !prng.NextBool(p));
  int mispredicted = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (bp.Observe(0, !prng.NextBool(p)).mispredicted) ++mispredicted;
  }
  const double rate = static_cast<double>(mispredicted) / kSamples;
  const double bayes = std::min(p, 1.0 - p);
  EXPECT_GE(rate, bayes * 0.9 - 0.002);
  EXPECT_LE(rate, 2.0 * bayes + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PredictorSelectivityTest,
                         ::testing::Values(0.0, 0.05, 0.1, 0.25, 0.4, 0.5,
                                           0.6, 0.75, 0.9, 0.95, 1.0));

}  // namespace
}  // namespace nipo
