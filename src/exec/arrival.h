#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

/// \file arrival.h
/// Arrival processes for open-loop workload execution (DESIGN.md
/// "Open-loop service mode").
///
/// A closed workload hands the driver every query at t = 0 and measures
/// makespan; an *open* workload is an arrival stream, and the metrics
/// that matter are per-query latency and its tail. The arrival process
/// is described by an ArrivalSpec and expanded by GenerateArrivalTimes
/// into a concrete schedule of simulated arrival instants — a pure
/// function of (spec, n) driven by the repo's seeded Prng, so identical
/// seeds yield bit-identical arrival schedules and every open-loop
/// experiment replays exactly.

namespace nipo {

/// \brief Shape of the arrival process.
enum class ArrivalKind : int {
  /// Closed queue: every query available at t = 0 (the PR-4 behaviour
  /// and the default; no arrival schedule is generated).
  kClosed = 0,
  /// Poisson process: exponential inter-arrival times of mean 1 / rate,
  /// sampled from Prng(seed).
  kPoisson,
};

std::string_view ArrivalKindToString(ArrivalKind kind);

/// \brief Description of one arrival process.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kClosed;
  /// Mean arrival rate in queries per simulated second. Must be positive
  /// for kPoisson; +infinity collapses every arrival to t = 0 exactly
  /// (the "simultaneous arrival" limit the differential tests compare
  /// against the closed queue).
  double rate_qps = 0;
  /// Seed of the Prng behind the kPoisson draws.
  uint64_t seed = 42;
};

/// \brief Expands `spec` into `n` non-decreasing arrival instants in
/// simulated milliseconds. kClosed yields all zeros. Pure function of
/// its arguments: rerunning with the same spec reproduces the schedule
/// bit-for-bit (the open-loop determinism anchor).
std::vector<double> GenerateArrivalTimes(const ArrivalSpec& spec, size_t n);

}  // namespace nipo
