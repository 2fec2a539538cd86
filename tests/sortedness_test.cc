#include "optimizer/sortedness.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

const CacheGeometry kL3{1024 * 1024, 16};

ProbeObservation ThrashingProbe() {
  ProbeObservation obs;
  obs.relation.num_tuples = 2'000'000;  // 8 MiB at 4 B: 8x the cache
  obs.relation.tuple_width = 4.0;
  obs.num_probes = 500'000;
  return obs;
}

TEST(SortednessTest, RandomPatternJudgedRandom) {
  ProbeObservation obs = ThrashingProbe();
  const double predicted =
      ExpectedRandomMisses(obs.relation, kL3, obs.num_probes);
  obs.sampled_l3_misses = predicted * 0.95;
  const SortednessVerdict v = JudgeSortedness(kL3, obs);
  EXPECT_FALSE(v.co_clustered);
  EXPECT_NEAR(v.score, 0.95, 1e-9);
  EXPECT_NEAR(v.predicted_random_misses, predicted, 1e-9);
}

TEST(SortednessTest, SequentialPatternJudgedCoClustered) {
  ProbeObservation obs = ThrashingProbe();
  // A sequential pass misses once per line.
  obs.sampled_l3_misses = obs.relation.num_tuples * obs.relation.tuple_width /
                          kCacheLineBytes;
  const SortednessVerdict v = JudgeSortedness(kL3, obs);
  EXPECT_TRUE(v.co_clustered);
  EXPECT_LT(v.score, 0.3);
}

TEST(SortednessTest, ThresholdIsRespected) {
  ProbeObservation obs = ThrashingProbe();
  const double predicted =
      ExpectedRandomMisses(obs.relation, kL3, obs.num_probes);
  obs.sampled_l3_misses = predicted * (kCoClusteredScore - 0.1);
  EXPECT_TRUE(JudgeSortedness(kL3, obs).co_clustered);
  obs.sampled_l3_misses = predicted * (kCoClusteredScore + 0.1);
  EXPECT_FALSE(JudgeSortedness(kL3, obs).co_clustered);
}

TEST(SortednessTest, ZeroPredictionDefaultsToCoClustered) {
  ProbeObservation obs;
  obs.relation.num_tuples = 100;
  obs.relation.tuple_width = 4.0;
  obs.num_probes = 0;
  obs.sampled_l3_misses = 0;
  const SortednessVerdict v = JudgeSortedness(kL3, obs);
  EXPECT_TRUE(v.co_clustered);
}

TEST(SortednessTest, EndToEndAgainstSimulatedCaches) {
  // Drive the real cache simulator with a random and a sequential probe
  // stream into an 8x-L3 relation and check the verdicts disagree.
  const uint64_t kDimRows = 2'000'000;
  const uint64_t kProbes = 500'000;
  const uint64_t base = 1ull << 32;
  for (bool random : {true, false}) {
    CacheHierarchy caches(CacheGeometry{8 * 1024, 8},
                          CacheGeometry{64 * 1024, 8}, kL3);
    Prng prng(11);
    for (uint64_t i = 0; i < kProbes; ++i) {
      const uint64_t row =
          random ? prng.NextBounded(kDimRows) : (i * kDimRows) / kProbes;
      caches.Access(base + row * 4, 4);
    }
    ProbeObservation obs;
    obs.relation.num_tuples = static_cast<double>(kDimRows);
    obs.relation.tuple_width = 4.0;
    obs.num_probes = static_cast<double>(kProbes);
    obs.sampled_l3_misses = static_cast<double>(caches.stats().l3_misses);
    const SortednessVerdict v = JudgeSortedness(kL3, obs);
    EXPECT_EQ(v.co_clustered, !random) << "random=" << random;
  }
}

}  // namespace
}  // namespace nipo
