#include "optimizer/estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace nipo {
namespace {

ScanShape MakeShape(double tuples, size_t preds) {
  ScanShape shape;
  shape.num_tuples = tuples;
  shape.predicate_widths.assign(preds, 4);
  shape.predictor = PredictorConfig::Symmetric(6);
  return shape;
}

/// Builds a synthetic "perfect" sample by evaluating the counter model at
/// the true selectivities -- the estimator must recover them.
CounterSample PerfectSample(const ScanShape& shape,
                            const std::vector<double>& truth) {
  CounterSample s;
  s.tuples_in = shape.num_tuples;
  double out = shape.num_tuples;
  for (double p : truth) out *= p;
  s.tuples_out = out;
  s.counters = PredictCounters(shape, truth);
  return s;
}

TEST(EstimatorTest, SinglePredicateIsExact) {
  const ScanShape shape = MakeShape(1e6, 1);
  const CounterSample s = PerfectSample(shape, {0.37});
  auto est = EstimateSelectivities(shape, s, {});
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.ValueOrDie().selectivities[0], 0.37, 1e-12);
  EXPECT_EQ(est.ValueOrDie().starts_used, 0);
}

class EstimatorRecoveryTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(EstimatorRecoveryTest, RecoversTrueSelectivities) {
  const std::vector<double> truth = GetParam();
  const ScanShape shape = MakeShape(1e6, truth.size());
  const CounterSample s = PerfectSample(shape, truth);
  auto est = EstimateSelectivities(shape, s, {});
  ASSERT_TRUE(est.ok());
  const auto& got = est.ValueOrDie().selectivities;
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(got[i], truth[i], 0.06)
        << "i=" << i << " objective=" << est.ValueOrDie().objective;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorRecoveryTest,
    ::testing::Values(std::vector<double>{0.2, 0.8},
                      std::vector<double>{0.8, 0.2},
                      std::vector<double>{0.5, 0.5},
                      std::vector<double>{0.05, 0.9},
                      std::vector<double>{0.9, 0.5, 0.1},
                      std::vector<double>{0.1, 0.5, 0.9},
                      std::vector<double>{0.33, 0.66, 0.5},
                      std::vector<double>{0.7, 0.6, 0.5, 0.4}));

TEST(EstimatorTest, OrderingIsRecoveredEvenWhenValuesAreOff) {
  // What the optimizer actually needs: the *ranking* of selectivities.
  const std::vector<double> truth = {0.9, 0.3, 0.6};
  const ScanShape shape = MakeShape(1e6, 3);
  const CounterSample s = PerfectSample(shape, truth);
  auto est = EstimateSelectivities(shape, s, {});
  ASSERT_TRUE(est.ok());
  const auto& got = est.ValueOrDie().selectivities;
  EXPECT_GT(got[0], got[2]);
  EXPECT_GT(got[2], got[1]);
}

TEST(EstimatorTest, AccessFractionsMonotone) {
  const ScanShape shape = MakeShape(1e6, 4);
  const CounterSample s = PerfectSample(shape, {0.9, 0.7, 0.5, 0.3});
  auto est = EstimateSelectivities(shape, s, {});
  ASSERT_TRUE(est.ok());
  const auto& pi = est.ValueOrDie().access_fractions;
  double prev = 1.0;
  for (double v : pi) {
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
  EXPECT_NEAR(pi.back(), s.tuples_out / s.tuples_in, 1e-9);
}

TEST(EstimatorTest, RespectsStartBudget) {
  const ScanShape shape = MakeShape(1e6, 3);
  const CounterSample s = PerfectSample(shape, {0.5, 0.5, 0.5});
  // A budget below the stall limit ends the search first.
  static_assert(2 < kEstimatorStallLimit);
  EstimatorConfig cfg;
  cfg.max_starts = 2;
  auto est = EstimateSelectivities(shape, s, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est.ValueOrDie().starts_used, 2);
}

TEST(EstimatorTest, StallLimitStopsEarly) {
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterSample s = PerfectSample(shape, {0.5, 0.5});
  // A budget far above the stall limit: the search ends after
  // kEstimatorStallLimit starts in a row fail to improve, and the first
  // start always improves.
  EstimatorConfig cfg;
  cfg.max_starts = 100;
  auto est = EstimateSelectivities(shape, s, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(est.ValueOrDie().starts_used, kEstimatorStallLimit + 1);
  EXPECT_LT(est.ValueOrDie().starts_used, 100);
}

TEST(EstimatorTest, BranchesOnlyCounterSetStillRecovers) {
  const std::vector<double> truth = {0.2, 0.7};
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterSample s = PerfectSample(shape, truth);
  EstimatorConfig cfg;
  cfg.counter_set = CounterSet::kBranchesOnly;
  auto est = EstimateSelectivities(shape, s, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.ValueOrDie().selectivities[0], 0.2, 0.08);
  EXPECT_NEAR(est.ValueOrDie().selectivities[1], 0.7, 0.12);
}

TEST(EstimatorTest, NoisySampleStillRanksCorrectly) {
  // 3% multiplicative noise on every counter.
  const std::vector<double> truth = {0.15, 0.85};
  const ScanShape shape = MakeShape(1e6, 2);
  CounterSample s = PerfectSample(shape, truth);
  s.counters.branches_not_taken *= 1.03;
  s.counters.taken_mp *= 0.97;
  s.counters.not_taken_mp *= 1.03;
  s.counters.l3_accesses *= 0.97;
  auto est = EstimateSelectivities(shape, s, {});
  ASSERT_TRUE(est.ok());
  EXPECT_LT(est.ValueOrDie().selectivities[0],
            est.ValueOrDie().selectivities[1]);
}

TEST(EstimatorTest, InputValidation) {
  const ScanShape shape = MakeShape(1e6, 2);
  CounterSample s;
  s.tuples_in = 0;
  EXPECT_FALSE(EstimateSelectivities(shape, s, {}).ok());
  s.tuples_in = 100;
  s.tuples_out = 200;  // out > in
  EXPECT_FALSE(EstimateSelectivities(shape, s, {}).ok());
  ScanShape empty = MakeShape(1e6, 0);
  s.tuples_out = 10;
  EXPECT_FALSE(EstimateSelectivities(empty, s, {}).ok());
}

TEST(EstimatorTest, ObjectiveExposedForAblations) {
  const ScanShape shape = MakeShape(1e6, 2);
  const CounterEstimate sampled = PredictCounters(shape, {0.4, 0.6});
  const double at_truth =
      EstimationObjective(shape, sampled, {0.4, 0.6}, CounterSet::kAll);
  const double off =
      EstimationObjective(shape, sampled, {0.6, 0.4}, CounterSet::kAll);
  EXPECT_NEAR(at_truth, 0.0, 1e-9);
  EXPECT_GT(off, 0.0);
  // Dropping counters can only reduce the distance.
  EXPECT_LE(EstimationObjective(shape, sampled, {0.6, 0.4},
                                CounterSet::kBntOnly),
            off + 1e-12);
}


// --- Bit-exact pins --------------------------------------------------------
//
// The estimator's output is part of the simulated result: a reordering
// decision hangs on it. These samples pin EstimateSelectivities bit for bit
// (every selectivity, access fraction and objective as a hex float, plus
// the start and iteration counts), so a refactor of the objective, the
// counter model or Nelder-Mead that reorders a single floating-point
// operation fails here rather than as drift in a benchmark.

struct PinnedCase {
  const char* name;
  std::vector<double> truth;
  CounterSet counter_set;
  std::vector<double> predicate_packed_bytes;
  std::vector<double> payload_packed_bytes;
  PredictorConfig predictor;
};

std::vector<PinnedCase> PinnedCases() {
  const PredictorConfig six = PredictorConfig::Symmetric(6);
  return {
      {"two_plain_all", {0.3, 0.7}, CounterSet::kAll, {}, {}, six},
      {"three_plain_all", {0.8, 0.25, 0.6}, CounterSet::kAll, {}, {}, six},
      {"three_plain_branches",
       {0.45, 0.1, 0.9},
       CounterSet::kBranchesOnly,
       {},
       {},
       six},
      {"four_packed_all",
       {0.9, 0.55, 0.35, 0.7},
       CounterSet::kAll,
       {1.0, 0.5, 0.0, 2.0},
       {1.25, 0.0},
       six},
      {"four_packed_branches",
       {0.2, 0.95, 0.5, 0.4},
       CounterSet::kBranchesOnly,
       {0.375, 1.0, 2.0, 0.25},
       {0.0, 1.5},
       six},
      {"five_plain_all",
       {0.6, 0.85, 0.3, 0.95, 0.5},
       CounterSet::kAll,
       {},
       {},
       six},
      {"five_plain_branches",
       {0.95, 0.7, 0.5, 0.3, 0.8},
       CounterSet::kBranchesOnly,
       {},
       {},
       six},
      {"two_packed_plus_one_taken",
       {0.65, 0.15},
       CounterSet::kAll,
       {0.75, 1.0},
       {2.0, 0.5},
       PredictorConfig::PlusOneTaken(5)},
  };
}

/// The sample a PMU would report for `c`: the counter model at the true
/// selectivities over one 4096-tuple vector, perturbed by a few percent
/// and rounded to whole events.
std::pair<ScanShape, CounterSample> PinnedSample(const PinnedCase& c) {
  ScanShape shape;
  shape.num_tuples = 4096;
  shape.predicate_widths.assign(c.truth.size(), 4);
  shape.payload_widths = {8, 4};
  shape.predicate_packed_bytes = c.predicate_packed_bytes;
  shape.payload_packed_bytes = c.payload_packed_bytes;
  shape.predictor = c.predictor;
  CounterSample s;
  s.tuples_in = shape.num_tuples;
  double out = shape.num_tuples;
  for (const double p : c.truth) out *= p;
  s.tuples_out = std::round(out);
  const CounterEstimate exact = PredictCounters(shape, c.truth);
  s.counters.branches_not_taken = std::round(exact.branches_not_taken * 1.01);
  s.counters.taken_mp = std::round(exact.taken_mp * 0.96);
  s.counters.not_taken_mp = std::round(exact.not_taken_mp * 1.04);
  s.counters.l3_accesses = std::round(exact.l3_accesses * 0.98);
  return {shape, s};
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string HexList(const std::vector<double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Hex(values[i]);
  }
  return out + "}";
}

/// Recorded before the objective was made allocation-free; the
/// three_plain_branches, five_plain_all and two_packed_plus_one_taken rows
/// were recorded on the same all-branching code path before the
/// branch-free predicate form was removed. The objective values were
/// re-recorded, and the evaluation counts added, when the Markov model
/// and the plain-column cache term dropped log, exp and pow: those moved
/// the objective in its last places only, and every selectivity, access
/// fraction, start and iteration count stayed as recorded. Any other
/// change here is a change of simulated results and needs its own
/// justification.
struct PinnedResult {
  std::vector<double> selectivities;
  std::vector<double> access_fractions;
  double objective;
  int starts_used;
  int total_nm_iterations;
  int objective_evaluations;
};

const std::vector<PinnedResult>& PinnedResults() {
  static const std::vector<PinnedResult> results = {
      {{0x1.388p-2, 0x1.604189374bc6ap-1},
       {0x1.388p-2, 0x1.aep-3},
       0x1.12c497ec67876p-3,
       4,
       0,
       8},
      {{0x1.9bfe711cc3778p-1, 0x1.068b5ea1fd28p-2, 0x1.2a17c03be7f5cp-1},
       {0x1.9bfe711cc3778p-1, 0x1.a686b336faa3p-3, 0x1.ecp-4},
       0x1.e1536af3aaf2p-5,
       6,
       260,
       506},
      {{0x1.c87861179fep-2, 0x1.f4858f74db839p-4, 0x1.7ced8152324a6p-1},
       {0x1.c87861179fep-2, 0x1.be3ca1fc18dcbp-5, 0x1.4cp-5},
       0x1.0acafee8d03ecp-4,
       6,
       252,
       478},
      {{0x1.d5705d9824ecap-1, 0x1.145f13808ec01p-1, 0x1.664bfc2399987p-2,
        0x1.66bfd6a6bc3abp-1},
       {0x1.d5705d9824ecap-1, 0x1.facb7d5dd82a6p-2, 0x1.62a77f0ae00acp-3,
        0x1.f1p-4},
       0x1.47b75a318eecdp-6,
       8,
       809,
       1496},
      {{0x1.e29de380c243p-3, 0x1.b2b6c1eb0d2c1p-1, 0x1.16edec8487132p-2,
        0x1.65cb8633d4567p-1},
       {0x1.e29de380c243p-3, 0x1.99c41ac217946p-3, 0x1.be77ca307548cp-5,
        0x1.38p-5},
       0x1.3d93b7c9adf5p-20,
       8,
       760,
       1389},
      {{0x1.a1618efa74be7p-1, 0x1.056f3d0a671b7p-1, 0x1.247b836d2c03ap-2,
        0x1.394eaf532df24p-1, 0x1p+0},
       {0x1.a1618efa74be7p-1, 0x1.aa3dd3978c9bp-2, 0x1.e6fc2be0ef13ap-4,
        0x1.2ap-4, 0x1.2ap-4},
       0x1.d0d4e5fb2014ap-8,
       9,
       1294,
       2293},
      {{0x1.df65ebbd53d1ap-1, 0x1.0ea711850182p-1, 0x1.52a8e757420adp-1,
        0x1.e4b419880ab9fp-1, 0x1.07c42a5259bf1p-2},
       {0x1.df65ebbd53d1ap-1, 0x1.fad65aed4e56ap-2, 0x1.4f3eb55e9567cp-2,
        0x1.3d5f3436d005ep-2, 0x1.47p-4},
       0x1.616c50f8fb283p-20,
       10,
       1372,
       2423},
      {{0x1.50ap-1, 0x1.2f6f81c235cep-3},
       {0x1.50ap-1, 0x1.8fp-4},
       0x1.013cf5de877bfp-3,
       4,
       0,
       8},
  };
  return results;
}

TEST(EstimatorPinTest, EstimatesAreBitIdenticalToRecorded) {
  const std::vector<PinnedCase> cases = PinnedCases();
  ASSERT_EQ(cases.size(), PinnedResults().size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const PinnedCase& c = cases[i];
    const PinnedResult& want = PinnedResults()[i];
    const auto [shape, sample] = PinnedSample(c);
    EstimatorConfig cfg;
    cfg.counter_set = c.counter_set;
    auto est = EstimateSelectivities(shape, sample, cfg);
    ASSERT_TRUE(est.ok()) << c.name;
    const SelectivityEstimate& got = est.ValueOrDie();
    // Compared as hex strings so a mismatch prints the new value in the
    // form the table above records.
    EXPECT_EQ(HexList(got.selectivities), HexList(want.selectivities))
        << c.name;
    EXPECT_EQ(HexList(got.access_fractions), HexList(want.access_fractions))
        << c.name;
    EXPECT_EQ(Hex(got.objective), Hex(want.objective)) << c.name;
    EXPECT_EQ(got.starts_used, want.starts_used) << c.name;
    EXPECT_EQ(got.total_nm_iterations, want.total_nm_iterations) << c.name;
    EXPECT_EQ(got.objective_evaluations, want.objective_evaluations)
        << c.name;
  }
}

}  // namespace
}  // namespace nipo
