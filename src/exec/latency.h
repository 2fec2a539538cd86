#pragma once

#include <cstddef>
#include <vector>

/// \file latency.h
/// Latency accumulation and tail reporting for open-loop workload
/// execution (DESIGN.md "Open-loop service mode").
///
/// All samples live in *simulated* milliseconds, so no percentile
/// depends on host timing. Like every simulated result they are
/// bit-stable across reruns only for one binary with ASLR off; heap
/// placement otherwise moves them slightly (EXPERIMENTS.md
/// "Reproducibility"). The accumulator keeps the exact
/// sample set (workload sizes are thousands of queries, not billions)
/// and computes exact nearest-rank percentiles — no sketch error term to
/// reason about in the differential tests.

namespace nipo {

/// \brief Headline tail statistics of one latency population.
struct LatencySummary {
  size_t count = 0;
  double mean_msec = 0;
  double p50_msec = 0;
  double p95_msec = 0;
  double p99_msec = 0;
  double max_msec = 0;

  bool operator==(const LatencySummary& other) const = default;
};

/// \brief Exact latency accumulator: add samples, then read nearest-rank
/// percentiles.
///
/// Every statistic is a pure function of the sample multiset: the order
/// of Add() calls, and reads interleaved with them, change nothing
/// bit-for-bit (the property tests in tests/latency_test.cc pin this
/// down).
class LatencyDistribution {
 public:
  void Add(double msec);

  size_t count() const { return samples_.size(); }
  double max_msec() const;
  double mean_msec() const;

  /// Nearest-rank percentile, p in [0, 100]: the smallest sample such
  /// that at least p% of all samples are <= it (p = 0 gives the
  /// minimum, p = 100 the maximum). Returns 0 on an empty accumulator.
  double Percentile(double p) const;

  /// {count, mean, p50, p95, p99, max} in one call.
  LatencySummary Summary() const;

 private:
  void EnsureSorted() const;

  /// Sorted lazily by the statistic reads; Add just appends. Every
  /// statistic is computed over the sorted samples so it is a pure
  /// function of the multiset (insertion order cannot perturb a ulp).
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace nipo
