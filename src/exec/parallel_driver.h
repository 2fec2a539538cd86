#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "exec/pipeline.h"
#include "exec/vector_driver.h"
#include "hw/pmu.h"

/// \file parallel_driver.h
/// Sharded multi-threaded execution of a pipeline (DESIGN.md "Parallel
/// execution").
///
/// The fact table is split into fixed-size *morsels* (the parallel analogue
/// of vector_driver.h's vectors); N worker threads claim morsels from
/// contiguous per-worker ranges with work-stealing, and every worker owns a
/// complete private simulated machine (Pmu::CloneFresh: its own caches,
/// branch predictor and cycle accounting) plus a thread-local
/// PipelineExecutor. This mirrors real morsel-driven engines, where each
/// core samples its own PMU around each morsel (the same PAPI-per-morsel
/// pattern vector_driver.h cites) and cores do not share L1/L2 state.
///
/// The merge step is deterministic in the *result* domain: per-morsel
/// VectorResults are recorded by morsel index and summed in index order, so
/// qualifying_tuples and the floating-point aggregate are bit-identical
/// across thread counts and runs. Counter totals are exact for what each
/// worker executed, but at num_threads > 1 the split of warm-up effects
/// across workers depends on the dynamic schedule — exactly as on real
/// multi-core silicon. With num_threads = 1 the driver degenerates to
/// VectorDriver's loop and reproduces it bit-identically.

namespace nipo {

/// \brief Parallel execution configuration.
struct ParallelConfig {
  /// Worker thread count (>= 1). 1 reproduces VectorDriver bit-identically.
  size_t num_threads = 1;
  /// Tuples per morsel; plays the role of VectorDriver's vector_size and
  /// is the counter-sampling unit under progressive optimization.
  size_t morsel_size = 65'536;
};

/// \brief One morsel's execution record: the per-morsel sample (with
/// VectorSample::vector_index holding the *global morsel index*), plus
/// which worker ran it and under which evaluation-order version.
struct MorselRecord {
  VectorSample sample;
  size_t worker_id = 0;
  /// Broadcast generation of the plan this morsel ran under (0 = the
  /// initial plan). The progressive coordinator uses this to exclude
  /// stale-plan morsels from its merged decision windows.
  uint64_t order_version = 0;
};

/// \brief Per-worker outcome: totals on that worker's private machine.
struct WorkerStats {
  PmuCounters counters;       ///< full-run totals on the worker's Pmu
  double simulated_msec = 0;  ///< the worker's private machine time
  uint64_t morsels = 0;       ///< morsels this worker executed
  uint64_t steals = 0;        ///< range-steal operations it performed
};

/// \brief Merged outcome of a sharded execution.
struct ParallelDriveResult {
  /// Deterministic merge: tuple counts and the aggregate summed in morsel-
  /// index order, counters summed over workers, num_vectors = num_morsels.
  /// simulated_msec is the *critical path* — the slowest worker's machine
  /// time — not the counter sum (cores run concurrently).
  DriveResult merged;
  std::vector<WorkerStats> workers;
  size_t num_morsels = 0;
  /// Real host wall-clock of the parallel region, for the thread-scaling
  /// bench (bench/scale_threads.cc). Not simulated and not deterministic.
  double wall_msec = 0;
  /// First runtime data error latched by any worker's executor
  /// (PipelineExecutor::error(); OK when none). All workers stop at the
  /// next morsel boundary once one latches; `merged` holds the partial
  /// counts accumulated before the stop.
  Status error;
};

/// \brief Drives N thread-local PipelineExecutors over morsel shards.
class ParallelDriver {
 public:
  /// Compiles one pipeline per worker, bound to that worker's private Pmu.
  /// Called once per worker before the threads start.
  using ExecutorFactory =
      std::function<Result<std::unique_ptr<PipelineExecutor>>(Pmu*)>;

  /// Decision hook, invoked serially (under the coordinator lock) with
  /// each completed morsel record, in completion order. Returning an
  /// evaluation order (original operator indices) broadcasts it: every
  /// worker applies it to its own executor at its next morsel boundary
  /// (Reorder between morsels, never mid-morsel). Passing a hook also
  /// turns on per-morsel counter sampling through SampleRange, the same
  /// charged read pair as the sampled VectorDriver path.
  using MorselHook =
      std::function<std::optional<std::vector<size_t>>(const MorselRecord&)>;

  /// \param prototype machine configuration donor; every worker machine is
  ///        prototype.CloneFresh() (cold caches, neutral predictor).
  ParallelDriver(Pmu prototype, ExecutorFactory factory,
                 ParallelConfig config);

  /// Executes the whole table across the configured worker count.
  /// `order`, if given, is applied to every worker's executor before
  /// execution starts.
  Result<ParallelDriveResult> Run(
      std::optional<std::vector<size_t>> order = std::nullopt,
      const MorselHook& hook = nullptr);

  const ParallelConfig& config() const { return config_; }

 private:
  Pmu prototype_;
  ExecutorFactory factory_;
  ParallelConfig config_;
};

}  // namespace nipo
