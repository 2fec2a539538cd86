#include "cost/join_model.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

TEST(JoinModelTest, DistinctLinesBasics) {
  EXPECT_DOUBLE_EQ(ExpectedDistinctLines(100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ExpectedDistinctLines(0.0, 10.0), 0.0);
  // One access touches exactly one line.
  EXPECT_NEAR(ExpectedDistinctLines(100.0, 1.0), 1.0, 1e-9);
  // Far more accesses than lines: asymptotically all lines.
  EXPECT_NEAR(ExpectedDistinctLines(100.0, 1e6), 100.0, 1e-6);
}

TEST(JoinModelTest, DistinctLinesMonotoneInAccesses) {
  double prev = 0.0;
  for (double r : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    const double d = ExpectedDistinctLines(500.0, r);
    EXPECT_GT(d, prev);
    EXPECT_LE(d, 500.0 + 1e-9);
    prev = d;
  }
}

TEST(JoinModelTest, DistinctLinesMatchesMonteCarlo) {
  const double kLines = 200.0, kAccesses = 300.0;
  Prng prng(3);
  double total = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<bool> seen(static_cast<size_t>(kLines), false);
    int distinct = 0;
    for (int r = 0; r < static_cast<int>(kAccesses); ++r) {
      const size_t line = static_cast<size_t>(prng.NextBounded(200));
      if (!seen[line]) {
        seen[line] = true;
        ++distinct;
      }
    }
    total += distinct;
  }
  EXPECT_NEAR(total / kTrials, ExpectedDistinctLines(kLines, kAccesses),
              2.0);
}

const CacheGeometry kL3{1024 * 1024, 16};  // 16384 lines

TEST(JoinModelTest, FittingRelationMissesEachLineOnce) {
  // Relation spans 1000 lines < 16384 capacity: Equation 1's first case.
  JoinRelationSpec rel{16'000.0, 4.0};  // 64000 B = 1000 lines
  const double misses = ExpectedRandomMisses(rel, kL3, 5000.0);
  EXPECT_NEAR(misses, ExpectedDistinctLines(1000.0, 5000.0), 1e-9);
  EXPECT_LT(misses, 1000.0 + 1e-9);
}

TEST(JoinModelTest, ThrashingRelationMissesPerProbe) {
  // Relation 8x the cache: Equation 1's second case. Resident fraction
  // 1/8 -> 7/8 of probes miss.
  JoinRelationSpec rel{2'097'152.0, 4.0};  // 8 MiB = 131072 lines
  const double probes = 1e6;
  const double misses = ExpectedRandomMisses(rel, kL3, probes);
  EXPECT_NEAR(misses / probes, 1.0 - 1.0 / 8.0, 1e-9);
}

TEST(JoinModelTest, MissesNeverExceedProbesInThrashRegime) {
  JoinRelationSpec rel{1e8, 8.0};
  const double misses = ExpectedRandomMisses(rel, kL3, 1e5);
  EXPECT_LE(misses, 1e5);
  EXPECT_GT(misses, 0.97e5);  // nearly every probe misses
}

TEST(JoinModelTest, SequentialFarCheaperThanRandomWhenThrashing) {
  JoinRelationSpec rel{4'194'304.0, 4.0};  // 16 MiB
  const double probes = 4'194'304.0;       // one probe per tuple
  const double random = ExpectedRandomMisses(rel, kL3, probes);
  // A sequential pass misses once per line.
  const double sequential = rel.num_tuples * rel.tuple_width / kCacheLineBytes;
  EXPECT_GT(random / sequential, 10.0);
}

}  // namespace
}  // namespace nipo
