#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "exec/workload_driver.h"

// Test-local helpers shared by the workload suites: hand-crafted
// durations and recorded reports both become QuantumTrace replay input
// for SimulateWorkloadSchedule, CompilerFor compiles for direct
// RunWorkload calls, and SoloDrive runs one workload entry alone as the
// bit-identity reference.

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

/// Compiles workload queries against `engine`'s tables, as
/// Engine::Execute does, for tests that call RunWorkload directly.
inline QueryCompiler CompilerFor(const Engine& engine) {
  return [&engine](const QuerySpec& query,
                   Pmu* pmu) -> Result<std::unique_ptr<PipelineExecutor>> {
    NIPO_ASSIGN_OR_RETURN(const Table* table, engine.GetTable(query.table));
    return PipelineExecutor::Compile(*table, query.ops, query.payload_columns,
                                     pmu);
  };
}

/// Solo single-threaded reference for one workload entry: its query, mode,
/// and vector size through Engine::Execute. Stores the
/// order the run ended in into `final_order` when non-null.
inline DriveResult SoloDrive(const Engine& engine, const WorkloadQuery& q,
                             std::vector<size_t>* final_order = nullptr) {
  ExecOptions options;
  options.mode = q.progressive ? ExecMode::kProgressive : ExecMode::kBaseline;
  options.driver = ExecDriver::kSolo;
  options.vector_size = q.config.vector_size;
  options.progressive = q.config;
  auto r = engine.Execute(q.query, options);
  EXPECT_TRUE(r.ok());
  const ExecReport& report = r.ValueOrDie();
  if (final_order != nullptr) *final_order = report.final_order;
  return q.progressive ? report.progressive->drive : report.baseline->drive;
}

}  // namespace nipo
