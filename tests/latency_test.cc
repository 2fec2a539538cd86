#include "exec/latency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/prng.h"

// Property tests for the LatencyDistribution accumulator (DESIGN.md
// "Open-loop service mode"):
//  - nearest-rank percentiles match an independent sort-based reference
//    on randomized inputs, for randomized p;
//  - every statistic is bit-identical under any insertion order, with
//    reads interleaved between the adds;
//  - empty / single-sample edge cases.

namespace nipo {
namespace {

/// Independent nearest-rank reference: sort a copy, take the
/// ceil(p/100 * N)-th smallest (1-based), clamped to [1, N].
double ReferencePercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::max<size_t>(1, std::min(rank, samples.size()));
  return samples[rank - 1];
}

std::vector<double> RandomSamples(Prng* prng, size_t n) {
  std::vector<double> samples(n);
  for (double& s : samples) {
    // Heavy-ish tail: squared uniform scaled, plus occasional spikes —
    // the shape latency populations actually have.
    const double u = prng->NextDouble();
    s = 100.0 * u * u + (prng->NextBounded(16) == 0 ? 1e4 * u : 0.0);
  }
  return samples;
}

TEST(LatencyDistributionTest, PercentilesMatchSortBasedReference) {
  Prng prng(7);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{10},
                         size_t{99}, size_t{100}, size_t{1017}}) {
    const std::vector<double> samples = RandomSamples(&prng, n);
    LatencyDistribution dist;
    for (const double s : samples) dist.Add(s);
    ASSERT_EQ(dist.count(), n);
    for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9,
                           100.0}) {
      EXPECT_EQ(dist.Percentile(p), ReferencePercentile(samples, p))
          << "n=" << n << " p=" << p;
    }
    // Randomized p, exact every time.
    for (int i = 0; i < 50; ++i) {
      const double p = 100.0 * prng.NextDouble();
      EXPECT_EQ(dist.Percentile(p), ReferencePercentile(samples, p))
          << "n=" << n << " p=" << p;
    }
    // Mean and max against direct computation over the sorted copy.
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (const double s : sorted) sum += s;
    EXPECT_EQ(dist.mean_msec(), sum / static_cast<double>(n));
    EXPECT_EQ(dist.max_msec(), sorted.back());
  }
}

TEST(LatencyDistributionTest, StatisticsIndependentOfInsertionOrder) {
  Prng prng(11);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + prng.NextBounded(300);
    const std::vector<double> samples = RandomSamples(&prng, n);

    LatencyDistribution forward;
    for (const double s : samples) forward.Add(s);
    LatencyDistribution backward;
    for (size_t i = n; i > 0; --i) backward.Add(samples[i - 1]);
    // Interleaving reads (forcing sorts) with adds must not change
    // anything either.
    LatencyDistribution interleaved;
    const size_t split = prng.NextBounded(n + 1);
    for (size_t i = 0; i < n; ++i) {
      if (i == split) (void)interleaved.Summary();
      interleaved.Add(samples[i]);
    }

    EXPECT_EQ(backward.Summary(), forward.Summary()) << "round " << round;
    EXPECT_EQ(interleaved.Summary(), forward.Summary()) << "round " << round;
  }
}

TEST(LatencyDistributionTest, EmptyAccumulator) {
  LatencyDistribution dist;
  EXPECT_EQ(dist.count(), 0u);
  EXPECT_EQ(dist.mean_msec(), 0.0);
  EXPECT_EQ(dist.max_msec(), 0.0);
  EXPECT_EQ(dist.Percentile(0), 0.0);
  EXPECT_EQ(dist.Percentile(50), 0.0);
  EXPECT_EQ(dist.Percentile(100), 0.0);
  const LatencySummary s = dist.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99_msec, 0.0);
}

TEST(LatencyDistributionTest, SingleSample) {
  LatencyDistribution dist;
  dist.Add(42.25);
  EXPECT_EQ(dist.count(), 1u);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(dist.Percentile(p), 42.25);
  }
  const LatencySummary s = dist.Summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean_msec, 42.25);
  EXPECT_EQ(s.p50_msec, 42.25);
  EXPECT_EQ(s.p95_msec, 42.25);
  EXPECT_EQ(s.p99_msec, 42.25);
  EXPECT_EQ(s.max_msec, 42.25);
}

}  // namespace
}  // namespace nipo
