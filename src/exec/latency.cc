#include "exec/latency.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

/// \file latency.cc
/// Exact nearest-rank latency percentiles over the full sample set.
/// Every statistic is computed over the *sorted* samples, making each a
/// pure function of the sample multiset, whatever order the samples
/// arrived in (the property tests pin this down).

namespace nipo {

void LatencyDistribution::Add(double msec) {
  samples_.push_back(msec);
  sorted_ = false;
}

void LatencyDistribution::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyDistribution::max_msec() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.back();
}

double LatencyDistribution::mean_msec() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  // Summed in sorted order so the floating-point result depends only on
  // the multiset, not on insertion order.
  double sum = 0;
  for (const double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double LatencyDistribution::Percentile(double p) const {
  NIPO_CHECK(p >= 0 && p <= 100);
  if (samples_.empty()) return 0;
  EnsureSorted();
  // Nearest rank: the ceil(p/100 * N)-th smallest sample, 1-based; p = 0
  // floors to rank 1 (the minimum).
  const double n = static_cast<double>(samples_.size());
  const size_t rank =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(p / 100.0 * n)));
  return samples_[std::min(rank, samples_.size()) - 1];
}

LatencySummary LatencyDistribution::Summary() const {
  LatencySummary s;
  s.count = samples_.size();
  s.mean_msec = mean_msec();
  s.p50_msec = Percentile(50);
  s.p95_msec = Percentile(95);
  s.p99_msec = Percentile(99);
  s.max_msec = max_msec();
  return s;
}

}  // namespace nipo
