#include "exec/arrival.h"

#include <cmath>

#include "common/logging.h"
#include "common/prng.h"

/// \file arrival.cc
/// Arrival-schedule generation (DESIGN.md "Open-loop service mode"): a
/// Poisson process expanded from a seeded Prng, so reruns are
/// bit-identical.

namespace nipo {

std::string_view ArrivalKindToString(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kClosed:
      return "closed";
    case ArrivalKind::kPoisson:
      return "poisson";
  }
  return "unknown";
}

namespace {

/// Exponential inter-arrival draw of mean `mean_msec`. 1 - NextDouble()
/// is in (0, 1], so the log argument never hits zero; a mean of exactly
/// 0 (the rate -> infinity limit) yields 0 regardless of the draw, which
/// is what collapses the open process to simultaneous arrivals.
double NextExponential(Prng* prng, double mean_msec) {
  return -std::log(1.0 - prng->NextDouble()) * mean_msec;
}

}  // namespace

std::vector<double> GenerateArrivalTimes(const ArrivalSpec& spec, size_t n) {
  std::vector<double> arrivals(n, 0.0);
  if (spec.kind == ArrivalKind::kClosed || n == 0) return arrivals;
  NIPO_CHECK(spec.rate_qps > 0);
  const double mean_gap_msec = 1e3 / spec.rate_qps;
  Prng prng(spec.seed);
  double t = 0;
  for (size_t i = 1; i < n; ++i) {
    t += NextExponential(&prng, mean_gap_msec);
    arrivals[i] = t;
  }
  return arrivals;
}

}  // namespace nipo
