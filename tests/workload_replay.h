#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "exec/workload_driver.h"

// Test-local helpers around SimulateWorkloadSchedule, shared by the
// workload suites: hand-crafted durations and recorded reports both
// become QuantumTrace replay input.

namespace nipo {

/// Replays hand-crafted per-quantum durations (`quantum_msec[q]` holds
/// query q's) as a closed queue: each duration becomes a QuantumTrace with
/// no evictions, no occupancy and a kNormal fate.
inline SimSchedule ReplayDurations(
    const std::vector<std::vector<double>>& quantum_msec, size_t num_threads,
    size_t max_concurrent, const SchedulePolicyConfig& config = {}) {
  std::vector<std::vector<QuantumTrace>> traces(quantum_msec.size());
  for (size_t q = 0; q < quantum_msec.size(); ++q) {
    for (const double msec : quantum_msec[q]) traces[q].push_back({msec});
  }
  return SimulateWorkloadSchedule(traces, /*arrival_msec=*/{}, num_threads,
                                  max_concurrent, config);
}

/// A report's recorded quanta as replay input, checking that the four
/// per-quantum arrays are parallel.
inline std::vector<std::vector<QuantumTrace>> TracesOf(
    const WorkloadReport& report) {
  std::vector<std::vector<QuantumTrace>> traces(report.queries.size());
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const WorkloadQueryReport& q = report.queries[i];
    EXPECT_EQ(q.quantum_msec.size(), q.quantum_evictions.size()) << q.name;
    EXPECT_EQ(q.quantum_msec.size(), q.quantum_occupancy.size()) << q.name;
    EXPECT_EQ(q.quantum_msec.size(), q.quantum_fate.size()) << q.name;
    if (q.quantum_msec.size() != q.quantum_evictions.size() ||
        q.quantum_msec.size() != q.quantum_occupancy.size() ||
        q.quantum_msec.size() != q.quantum_fate.size()) {
      continue;  // reported above; never index past a short array
    }
    for (size_t k = 0; k < q.quantum_msec.size(); ++k) {
      traces[i].push_back({q.quantum_msec[k], q.quantum_evictions[k],
                           q.quantum_occupancy[k], q.quantum_fate[k]});
    }
  }
  return traces;
}

}  // namespace nipo
