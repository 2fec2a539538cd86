#include "cost/cache_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/prng.h"
#include "hw/cache.h"

namespace nipo {
namespace {

const ScanCacheModelConfig kCfg{};  // 64B lines, double counting on

TEST(CacheModelTest, FullScanAccessesEveryLineOnce) {
  // rho = 1: purely sequential, one L3 access per line.
  const ColumnCacheEstimate e =
      EstimateColumnCache(kCfg, 16'384.0, ScanColumnSpec{4, 1.0});
  EXPECT_NEAR(e.lines_total, 1024.0, 1e-9);
  EXPECT_NEAR(e.lines_accessed, 1024.0, 1e-9);
  EXPECT_NEAR(e.random_lines, 0.0, 1e-9);
  EXPECT_NEAR(e.l3_accesses, 1024.0, 1e-9);
}

TEST(CacheModelTest, ZeroDensityAccessesNothing) {
  const ColumnCacheEstimate e =
      EstimateColumnCache(kCfg, 16'384.0, ScanColumnSpec{4, 0.0});
  EXPECT_NEAR(e.lines_accessed, 0.0, 1e-9);
  EXPECT_NEAR(e.l3_accesses, 0.0, 1e-9);
}

TEST(CacheModelTest, TinyDensityDoubleCountsEveryTouchedLine) {
  // rho so small that touched lines are isolated: each costs ~2 accesses.
  const ColumnCacheEstimate e =
      EstimateColumnCache(kCfg, 1e7, ScanColumnSpec{4, 1e-4});
  EXPECT_GT(e.lines_accessed, 0.0);
  EXPECT_NEAR(e.l3_accesses / e.lines_accessed, 2.0, 0.01);
}

TEST(CacheModelTest, DoubleCountingToggle) {
  ScanCacheModelConfig no_double = kCfg;
  no_double.double_count_random_misses = false;
  const ScanColumnSpec col{4, 0.01};
  const double with =
      EstimateColumnCache(kCfg, 1e6, col).l3_accesses;
  const double without =
      EstimateColumnCache(no_double, 1e6, col).l3_accesses;
  EXPECT_GT(with, without);
  // Without double counting, accesses equal accessed lines exactly.
  EXPECT_NEAR(without, EstimateColumnCache(kCfg, 1e6, col).lines_accessed,
              1e-9);
}

TEST(CacheModelTest, SaturationAboveTwentyPercentFor16ValueLines) {
  // Paper Section 3.1: for int32 columns (16 values/line), beyond ~20%
  // selectivity every line is touched, so accesses stay flat.
  const double at_25 =
      EstimateColumnCache(kCfg, 1e6, ScanColumnSpec{4, 0.25}).l3_accesses;
  const double at_60 =
      EstimateColumnCache(kCfg, 1e6, ScanColumnSpec{4, 0.60}).l3_accesses;
  const double at_100 =
      EstimateColumnCache(kCfg, 1e6, ScanColumnSpec{4, 1.0}).l3_accesses;
  EXPECT_NEAR(at_25 / at_100, 1.0, 0.05);
  EXPECT_NEAR(at_60 / at_100, 1.0, 0.01);
}

TEST(CacheModelTest, WiderValuesTouchMoreLines) {
  const double narrow =
      EstimateColumnCache(kCfg, 1e6, ScanColumnSpec{4, 1.0}).l3_accesses;
  const double wide =
      EstimateColumnCache(kCfg, 1e6, ScanColumnSpec{8, 1.0}).l3_accesses;
  EXPECT_NEAR(wide / narrow, 2.0, 1e-9);
}

TEST(CacheModelTest, WholeValuesPerLineMatchPow) {
  // Plain columns raise (1 - rho) to an integral values-per-line by binary
  // powering; it must agree with std::pow to within a few roundings. The
  // differences are taken relative to the column's line count: at tiny rho
  // the accessed share 1 - (1-rho)^t cancels, so both forms carry ~1e-9
  // relative error in it, while their (1-rho)^t differ by a few ulps.
  for (uint32_t width : {1u, 2u, 4u, 8u}) {
    for (double rho : {0.0, 1e-9, 0.3, 0.5, 1.0}) {
      const double tuples = 1e6;
      const ColumnCacheEstimate got =
          EstimateColumnCache(kCfg, tuples, ScanColumnSpec{width, rho});
      const double values_per_line = 64.0 / width;
      const double lines = tuples / values_per_line;
      const double untouched = std::pow(1.0 - rho, values_per_line);
      const double accessed = 1.0 - untouched;
      const std::pair<double, double> fields[] = {
          {got.lines_total, lines},
          {got.lines_accessed, lines * accessed},
          {got.random_lines, lines * accessed * untouched},
          {got.l3_accesses,
           lines * accessed + lines * accessed * untouched},
      };
      for (const auto& [have, want] : fields) {
        EXPECT_LE(std::abs(have - want), 1e-14 * lines)
            << "width=" << width << " rho=" << rho << " have=" << have
            << " want=" << want;
      }
    }
  }
}

TEST(CacheModelTest, PackedWidthKeepsPowFormula) {
  // A fractional packed width has a fractional values-per-line and keeps
  // the general power, bit for bit.
  for (double packed : {0.375, 1.25}) {
    for (double rho : {1e-9, 0.01, 0.3, 0.5}) {
      const double tuples = 123'456;
      const ColumnCacheEstimate got = EstimateColumnCache(
          kCfg, tuples, ScanColumnSpec{4, rho, packed});
      const double values_per_line = 64.0 / packed;
      const double lines = tuples / values_per_line;
      const double untouched = std::pow(1.0 - rho, values_per_line);
      const double accessed = 1.0 - untouched;
      EXPECT_EQ(got.lines_total, lines);
      EXPECT_EQ(got.lines_accessed, lines * accessed);
      EXPECT_EQ(got.random_lines, lines * accessed * untouched);
      EXPECT_EQ(got.l3_accesses,
                lines * accessed + lines * accessed * untouched);
    }
  }
}

// Cross-validation against the simulated hierarchy: the analytic scan
// model must predict the simulator's L3 access counter within a few
// percent across the selectivity sweep.
class CacheModelVsSimulatorTest : public ::testing::TestWithParam<double> {};

TEST_P(CacheModelVsSimulatorTest, PredictsSimulatedL3Accesses) {
  const double rho = GetParam();
  const size_t kTuples = 200'000;
  // Simulate: conditional scan of an int32 column; tuples chosen i.i.d.
  CacheHierarchy caches(CacheGeometry{8 * 1024, 8},
                        CacheGeometry{64 * 1024, 8},
                        CacheGeometry{1024 * 1024, 16});
  Prng prng(5);
  const uint64_t base = 1u << 30;  // arbitrary aligned base address
  for (size_t i = 0; i < kTuples; ++i) {
    if (prng.NextBool(rho)) {
      caches.Access(base + i * 4, 4);
    }
  }
  const double simulated =
      static_cast<double>(caches.stats().l3_accesses);
  const double predicted =
      EstimateColumnCache(kCfg, static_cast<double>(kTuples),
                          ScanColumnSpec{4, rho})
          .l3_accesses;
  if (rho == 0.0) {
    EXPECT_EQ(simulated, 0.0);
    return;
  }
  // The model treats every accessed-line-after-a-gap as a full wasted
  // prefetch; short runs of adjacent accessed lines make that a slight
  // over-estimate in the low-density regime, so allow 15%.
  EXPECT_NEAR(simulated / predicted, 1.0, 0.15)
      << "rho=" << rho << " simulated=" << simulated
      << " predicted=" << predicted;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheModelVsSimulatorTest,
                         ::testing::Values(0.0, 0.005, 0.02, 0.05, 0.1, 0.2,
                                           0.35, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace nipo
