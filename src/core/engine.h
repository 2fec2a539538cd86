#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/workload_driver.h"
#include "hw/pmu.h"
#include "optimizer/progressive.h"
#include "storage/encoding.h"
#include "storage/table.h"

/// \file engine.h
/// The library's public facade.
///
/// An Engine owns a set of registered tables and a simulated-machine
/// configuration; queries are described by QuerySpec (operator chain +
/// aggregate payload) and executed through one Engine::Execute, either as
/// a fixed-order baseline (the paper's "common execution pattern") or
/// under progressive optimization, each on a single-threaded or a sharded
/// multi-threaded driver (ExecOptions; DESIGN.md "Parallel execution").
/// Each execution runs on fresh simulated machines (cold caches, neutral
/// predictor) -- one per worker thread in the sharded case -- so results
/// are deterministic and comparable.
///
/// Typical use (see examples/quickstart.cc):
/// \code
///   nipo::Engine engine;
///   engine.RegisterTable(std::move(lineitem));
///   nipo::QuerySpec query;
///   query.table = "lineitem";
///   query.ops = nipo::MakeQ6FullPredicates();
///   query.payload_columns = nipo::Q6PayloadColumns();
///   nipo::ExecOptions options;
///   options.mode = nipo::ExecMode::kProgressive;
///   auto report = engine.Execute(query, options);
/// \endcode

namespace nipo {

/// \brief Baseline (fixed-order) execution result.
struct BaselineReport {
  DriveResult drive;
  std::vector<size_t> order;  ///< the order that was executed
};

/// \brief Sharded baseline execution result.
struct ParallelBaselineReport {
  ParallelDriveResult drive;
  std::vector<size_t> order;  ///< the order that was executed
};

/// \brief Optimization strategy of the unified Execute entry point.
enum class ExecMode {
  kBaseline,     ///< fixed evaluation order (the paper's common pattern)
  kProgressive,  ///< in-flight reordering from counter windows
};

/// \brief Driver selection of the unified Execute entry point.
enum class ExecDriver {
  /// Solo when num_threads <= 1, sharded otherwise.
  kAuto,
  /// Single-threaded vector-at-a-time drive (VectorDriver).
  kSolo,
  /// Morsel-sharded multi-threaded drive (ParallelDriver), even at
  /// num_threads = 1 (which reproduces the solo counters bit-identically
  /// at vector_size == morsel size).
  kSharded,
};

/// \brief Options of the unified Engine::Execute entry point: one struct
/// selects the mode and the driver instead of four mode-specific method
/// signatures.
struct ExecOptions {
  ExecMode mode = ExecMode::kBaseline;
  ExecDriver driver = ExecDriver::kAuto;
  /// Worker threads of the sharded driver (>= 1; ignored by kSolo).
  size_t num_threads = 1;
  /// Vector size of the solo baseline drive, morsel size of the sharded
  /// baseline drive. Progressive runs sample at progressive.vector_size
  /// instead, so their unit matches the optimizer's windows.
  size_t vector_size = 65'536;
  /// Progressive settings -- sampling vector size, re-optimization
  /// interval, validation -- consulted when mode == kProgressive.
  ProgressiveConfig progressive;
  /// Optional initial evaluation order (permutation of query.ops).
  std::optional<std::vector<size_t>> order;
};

/// \brief Unified execution result: the mode-independent headline numbers
/// plus exactly one engaged mode-specific sub-report.
struct ExecReport {
  /// The (mode, driver) pair that actually ran; driver is resolved, never
  /// kAuto.
  ExecMode mode = ExecMode::kBaseline;
  ExecDriver driver = ExecDriver::kSolo;
  uint64_t input_tuples = 0;
  uint64_t qualifying_tuples = 0;
  /// Tuples pruned by zone maps before per-tuple work (0 over plain
  /// storage; see src/storage/encoding.h).
  uint64_t zone_skipped_tuples = 0;
  double aggregate = 0.0;
  PmuCounters counters;       ///< merged over workers for sharded drives
  double simulated_msec = 0;  ///< critical path for sharded drives
  std::vector<size_t> final_order;
  /// Mode-specific details; the one matching (mode, driver) is engaged.
  std::optional<BaselineReport> baseline;
  std::optional<ProgressiveReport> progressive;
  std::optional<ParallelBaselineReport> sharded_baseline;
  std::optional<ParallelProgressiveReport> sharded_progressive;
};

/// \brief Engine: table registry + simulated machine + query entry points.
class Engine {
 public:
  explicit Engine(HwConfig hw = HwConfig::XeonE5_2630v2());

  /// Registers a table; the engine takes ownership. AlreadyExists if the
  /// name is taken.
  Status RegisterTable(std::unique_ptr<Table> table);

  /// Look up a registered table.
  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);

  const HwConfig& hw_config() const { return hw_; }

  /// Event-reporting mode of every machine this engine builds (see
  /// ReportingMode in hw/pmu.h). kBatched — the default — and kScalar
  /// produce bit-identical counters; the scalar mode exists for
  /// differential tests and for measuring the batching speedup
  /// (bench/sim_throughput.cc).
  ReportingMode reporting_mode() const { return reporting_mode_; }
  void set_reporting_mode(ReportingMode mode) { reporting_mode_ = mode; }

  /// Unified entry point: executes `query` on fresh machines under the
  /// mode / driver selected by `options`. `options.order`, if given,
  /// permutes query.ops before the first vector (the paper's "initial
  /// PEO" degree of freedom). Sharded progressive runs merge
  /// per-morsel counter samples in one shared coordinator, whose order
  /// changes are broadcast to all workers at morsel boundaries.
  Result<ExecReport> Execute(const QuerySpec& query,
                             const ExecOptions& options = {}) const;

  /// Unified entry point, workload form: executes a multi-query workload
  /// with admission control (DESIGN.md "Workload execution"): up to
  /// `spec.options.max_concurrent` queries in flight, each on its own
  /// fresh private machine with its own progressive optimizer, time-shared
  /// at vector granularity across `spec.options.num_threads` simulated
  /// cores by one deterministic event loop. Without contention every
  /// query's results and counters are bit-identical to running it alone,
  /// and the report's simulated makespan / latencies / queries-per-sec do
  /// not depend on host timing. Across processes they are bit-stable only
  /// for one binary with ASLR off: the cache model keys off host
  /// addresses, so heap placement moves them slightly (EXPERIMENTS.md
  /// "Reproducibility").
  ///
  /// Service mode (DESIGN.md Section 7): `spec.options.arrival` switches
  /// the closed queue to an open Poisson arrival stream (over the seeded
  /// PRNG) with per-query latency decomposed into queue wait +
  /// in-service span and p50/p95/p99/max tails in the report;
  /// `spec.options.adaptive_admission` lets the admission limit self-tune
  /// inside [1, max_concurrent] from simulated interference feedback.
  /// Both compose with `spec.options.contention`, and every
  /// latency figure stays bit-stable.
  Result<WorkloadReport> Execute(const WorkloadSpec& spec) const;

  /// Re-encodes every column of a registered table into the per-block
  /// compressed format (dictionary / bit-packed / plain per 65,536-value
  /// block, with zone maps; see src/storage/encoding.h). Queries keep
  /// working unchanged through the ColumnView scan API; an encodings-off
  /// engine stays bit-identical to the plain-array path. Idempotent:
  /// already-encoded columns are left alone.
  Result<TableEncodingStats> EncodeTable(const std::string& name);

  /// Builds the fresh simulated machine every execution runs on (cold
  /// caches, neutral predictor). Solo drives run on this machine
  /// directly; the sharded driver clones it per worker
  /// (Pmu::CloneFresh), so the two paths cannot drift apart.
  Pmu NewMachine() const {
    Pmu pmu(hw_);
    pmu.set_reporting_mode(reporting_mode_);
    return pmu;
  }

 private:
  Result<std::unique_ptr<PipelineExecutor>> CompileQuery(
      const QuerySpec& query, Pmu* pmu) const;

  HwConfig hw_;
  ReportingMode reporting_mode_ = ReportingMode::kBatched;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

/// \brief All permutations of {0..n-1} in lexicographic order; the
/// evaluation enumerates these as the paper's "120 permutations" x-axis.
/// n is capped at 8 (40320 orders) to bound accidents.
std::vector<std::vector<size_t>> AllOrders(size_t n);

}  // namespace nipo
