#include "cost/counter_model.h"

#include <gtest/gtest.h>

#include "optimizer/estimator.h"

namespace nipo {
namespace {

ScanShape MakeShape(double tuples, size_t preds) {
  ScanShape shape;
  shape.num_tuples = tuples;
  shape.predicate_widths.assign(preds, 4);
  shape.payload_widths = {};
  shape.predictor = PredictorConfig::Symmetric(6);
  return shape;
}

TEST(CounterModelTest, PredictsAllFourCounters) {
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterEstimate e = PredictCounters(shape, {0.5, 0.3});
  EXPECT_GT(e.branches_not_taken, 0.0);
  EXPECT_GT(e.taken_mp, 0.0);
  EXPECT_GT(e.not_taken_mp, 0.0);
  EXPECT_GT(e.l3_accesses, 0.0);
  // BNT = 1e6*0.5 + 5e5*0.3.
  EXPECT_NEAR(e.branches_not_taken, 650'000.0, 1e-6);
}

TEST(CounterModelTest, L3ChainsAccessFractionsThroughPredicatesAndPayloads) {
  // Predicate i is read at the product of the selectivities before it;
  // payloads are read by qualifying tuples. Packed widths replace the
  // plain ones per column.
  ScanShape shape = MakeShape(1e6, 2);
  shape.payload_widths = {8, 4};
  const ScanCacheModelConfig& cfg = shape.cache;
  auto column = [&](uint32_t width, double rho, double packed) {
    return EstimateColumnCache(cfg, 1e6, ScanColumnSpec{width, rho, packed})
        .l3_accesses;
  };
  EXPECT_DOUBLE_EQ(PredictScanL3Accesses(shape, {0.5, 0.2}),
                   column(4, 1.0, 0) + column(4, 0.5, 0) +
                       column(8, 0.1, 0) + column(4, 0.1, 0));
  shape.predicate_packed_bytes = {0.5, 0.0};
  shape.payload_packed_bytes = {0.0, 1.5};
  EXPECT_DOUBLE_EQ(PredictScanL3Accesses(shape, {0.5, 0.2}),
                   column(4, 1.0, 0.5) + column(4, 0.5, 0) +
                       column(8, 0.1, 0) + column(4, 0.1, 1.5));
  EXPECT_EQ(PredictCounters(shape, {0.5, 0.2}).l3_accesses,
            PredictScanL3Accesses(shape, {0.5, 0.2}));
}

TEST(CounterModelTest, DistinguishesPermutedSelectivities) {
  // The paper's key requirement (Figure 8): (0.4, 0.2) and (0.2, 0.4)
  // must differ in at least one counter. Their BNT totals differ already
  // (0.4 + 0.08 vs 0.2 + 0.08 of n).
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterEstimate a = PredictCounters(shape, {0.4, 0.2});
  const CounterEstimate b = PredictCounters(shape, {0.2, 0.4});
  const bool differs =
      std::abs(a.branches_not_taken - b.branches_not_taken) > 1.0 ||
      std::abs(a.taken_mp - b.taken_mp) > 1.0 ||
      std::abs(a.not_taken_mp - b.not_taken_mp) > 1.0 ||
      std::abs(a.l3_accesses - b.l3_accesses) > 1.0;
  EXPECT_TRUE(differs);
}

TEST(CounterModelTest, PayloadContributesToL3Only) {
  ScanShape bare = MakeShape(1e6, 1);
  ScanShape with_payload = bare;
  with_payload.payload_widths = {8};
  const CounterEstimate a = PredictCounters(bare, {0.5});
  const CounterEstimate b = PredictCounters(with_payload, {0.5});
  EXPECT_DOUBLE_EQ(a.branches_not_taken, b.branches_not_taken);
  EXPECT_DOUBLE_EQ(a.taken_mp, b.taken_mp);
  EXPECT_LT(a.l3_accesses, b.l3_accesses);
}

// The distance tests run the estimator's Equation 10 objective, the one
// consumer of these predictions.
double Distance(const ScanShape& shape, const CounterEstimate& sampled,
                const std::vector<double>& candidate) {
  return EstimationObjective(shape, sampled, candidate, CounterSet::kAll);
}

TEST(CounterModelTest, DistanceZeroForIdenticalVectors) {
  const ScanShape shape = MakeShape(1e6, 3);
  const CounterEstimate e = PredictCounters(shape, {0.9, 0.5, 0.1});
  EXPECT_DOUBLE_EQ(Distance(shape, e, {0.9, 0.5, 0.1}), 0.0);
}

TEST(CounterModelTest, DistanceGrowsWithSelectivityGap) {
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterEstimate sampled = PredictCounters(shape, {0.5, 0.5});
  const double near_d = Distance(shape, sampled, {0.52, 0.5});
  const double far_d = Distance(shape, sampled, {0.9, 0.5});
  EXPECT_LT(near_d, far_d);
  EXPECT_GT(near_d, 0.0);
}

TEST(CounterModelTest, DistanceIsSymmetricEnough) {
  const ScanShape shape = MakeShape(1e5, 2);
  const CounterEstimate a = PredictCounters(shape, {0.3, 0.6});
  const CounterEstimate b = PredictCounters(shape, {0.6, 0.3});
  // Not exactly symmetric (normalization is by the sampled side), but
  // both directions must be strictly positive.
  EXPECT_GT(Distance(shape, a, {0.6, 0.3}), 0.0);
  EXPECT_GT(Distance(shape, b, {0.3, 0.6}), 0.0);
}

class CounterModelSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CounterModelSweep, SelfDistanceIsGlobalMinimumOnGrid) {
  // For every "true" pair on a coarse grid, the objective evaluated at the
  // truth is no larger than at any other grid point -- identifiability of
  // the estimation problem on the grid.
  const double s1 = std::get<0>(GetParam());
  const double s2 = std::get<1>(GetParam());
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterEstimate sampled = PredictCounters(shape, {s1, s2});
  const double at_truth = Distance(shape, sampled, {s1, s2});
  for (double c1 : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (double c2 : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const double d = Distance(shape, sampled, {c1, c2});
      EXPECT_GE(d + 1e-12, at_truth)
          << "truth=(" << s1 << "," << s2 << ") cand=(" << c1 << "," << c2
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CounterModelSweep,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)));

}  // namespace
}  // namespace nipo
