#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/parallel_driver.h"
#include "exec/vector_driver.h"
#include "optimizer/estimator.h"
#include "optimizer/statistics.h"

/// \file progressive.h
/// The progressive optimization driver (paper Section 4.4, Figure 10),
/// in a single-threaded and a sharded-parallel form (DESIGN.md "Parallel
/// execution").
///
/// Execution proceeds vector by vector. Every `reopt_interval` vectors the
/// driver takes the latest counter sample, runs the Section 4.2 learning
/// algorithm to estimate the selectivity of every operator in the current
/// evaluation order, and prices evaluation orders in predicted simulated
/// cycles per input tuple: the cycle model's instruction, branch and
/// misprediction prices (the misprediction rate from the Markov predictor
/// model at each estimated selectivity), the scan cache model for the
/// fact columns, the sampled probe misses per probe evaluation, and a
/// zone-map discount. A dynamic program over operator subsets finds the
/// cheapest order exactly. If it beats the current order by more than the
/// sample's sampling noise allows, the driver switches to it for
/// subsequent vectors (the JIT-recompile / primitive-rechain step). The
/// next vector *validates* the switch: if its cycles-per-tuple
/// deteriorate, the old order is re-established (Section 4.4's "if they
/// deteriorate, the old order is reestablished").
///
/// Under sharded execution ParallelProgressiveCoordinator feeds this same
/// optimizer: worker morsel samples are merged into windows of
/// `reopt_interval` same-order morsels (SampleMerger; counter sums over
/// same-order morsels are sufficient statistics for the estimators), each
/// window is one decision point, and every resulting order change is
/// broadcast to all workers at morsel boundaries.

namespace nipo {

/// \brief Driver configuration.
struct ProgressiveConfig {
  size_t vector_size = 65'536;
  /// Vectors between optimization attempts (the paper's ReopInt; its
  /// evaluation uses 10, 75 and 200).
  size_t reopt_interval = 10;
  /// Validate the vector after a reorder and revert when its
  /// cycles-per-tuple regress past a fixed factor (kRevertThreshold in
  /// progressive.cc).
  bool validate_and_revert = true;
};

/// \brief One evaluation-order change performed during execution.
struct PeoChange {
  size_t vector_index = 0;
  std::vector<size_t> old_order;
  std::vector<size_t> new_order;
  /// Predicted simulated cycles per input tuple of the old and the new
  /// order on the sample that decided the change.
  double predicted_old_cycles = 0;
  double predicted_new_cycles = 0;
  /// Relative margin the change cleared:
  /// predicted_new_cycles < predicted_old_cycles * (1 - margin).
  double margin = 0;
  bool reverted = false;  ///< validation rolled it back
};

/// \brief Outcome of a progressively optimized execution.
struct ProgressiveReport {
  DriveResult drive;
  std::vector<PeoChange> changes;
  size_t num_optimizations = 0;
  /// Last selectivity estimate, in the operator order current at that
  /// time (empty if never optimized).
  std::vector<double> last_estimate;
  std::vector<size_t> final_order;
};

/// \brief Runs a pipeline to completion under progressive optimization.
class ProgressiveOptimizer {
 public:
  ProgressiveOptimizer(PipelineExecutor* executor, ProgressiveConfig config);

  /// Executes the whole table, re-optimizing on the configured cadence.
  ProgressiveReport Run();

  // Stepping interface, used by the workload driver (exec/workload_driver.h)
  // to interleave this query with others on a shared worker pool, and by
  // ParallelProgressiveCoordinator to decide on merged morsel windows:
  // Begin() resets the optimizer state, OnVector() consumes one sample
  // (identical to the hook Run() installs), and Finish() returns the
  // report with the caller-accumulated drive result filled in. Run()
  // itself is implemented on top of these three calls, so the paths cannot
  // drift apart.

  /// Resets all optimizer state for a new execution.
  void Begin();

  /// Consumes the sample of the vector that just executed; may Reorder()
  /// the executor for subsequent vectors.
  void OnVector(const VectorSample& sample) { HandleVector(sample); }

  /// Finalizes the report. `drive` is the caller's accumulated result of
  /// the driven execution (VectorDriver::Run or the workload driver's
  /// per-vector stepping).
  ProgressiveReport Finish(DriveResult drive);

 private:
  struct PendingValidation {
    std::vector<size_t> old_order;
    double old_cycles_per_tuple = 0;
  };

  void HandleVector(const VectorSample& sample);
  void Optimize(const VectorSample& sample);

  PipelineExecutor* executor_;
  ProgressiveConfig config_;
  ProgressiveReport report_;
  std::optional<PendingValidation> pending_;
  double last_cycles_per_tuple_ = 0;
  /// Hysteresis: an order that validation just rolled back is not
  /// re-proposed for `hysteresis_ttl_` optimization cycles, preventing
  /// estimate-noise oscillation (propose -> revert -> propose -> ...)
  /// while still allowing the order back in once conditions change.
  std::vector<size_t> recently_reverted_;
  int hysteresis_ttl_ = 0;
};

/// \brief Outcome of a sharded progressively optimized execution.
struct ParallelProgressiveReport {
  ParallelDriveResult drive;
  /// PEO trace; vector_index holds the morsel index ending the decision
  /// window that triggered the change.
  std::vector<PeoChange> changes;
  size_t num_optimizations = 0;
  std::vector<double> last_estimate;
  std::vector<size_t> final_order;
  /// Morsels excluded from decision windows because they were already in
  /// flight (under the previous plan) when a new plan was broadcast.
  size_t stale_morsels = 0;
};

/// \brief The shared optimizer of a sharded execution: one coordinator
/// receives every worker's morsel samples (serialized by ParallelDriver's
/// hook lock), merges them into windows of `reopt_interval` same-order
/// morsels, and steps a ProgressiveOptimizer over the windows -- one
/// decision point per window, so estimate, price, validate/revert and
/// hysteresis are exactly the single-threaded driver's.
///
/// That optimizer drives a *control* executor: a non-executing pipeline
/// compiled over the same query that provides operator metadata and
/// carries the authoritative current order. Whenever a window changes
/// it, the new order is returned to the driver for broadcast; workers
/// apply it at morsel boundaries. The coordinator's broadcast count
/// equals ParallelDriver's plan version (both start at 0 and advance once
/// per returned order), which is how
/// MorselRecord::order_version identifies stale-plan morsels.
class ParallelProgressiveCoordinator {
 public:
  ParallelProgressiveCoordinator(PipelineExecutor* control,
                                 ProgressiveConfig config);

  /// ParallelDriver::MorselHook entry point. Returns the order to
  /// broadcast when a window changes it (a reorder or a validation
  /// revert).
  std::optional<std::vector<size_t>> OnMorsel(const MorselRecord& record);

  /// Exports the PEO trace into `report` (call once, after the drive
  /// completes; `drive` is filled by the caller).
  void FillReport(ParallelProgressiveReport* report);

 private:
  PipelineExecutor* control_;
  size_t window_size_;
  ProgressiveOptimizer optimizer_;
  SampleMerger window_;
  uint64_t version_ = 0;  ///< broadcasts issued; the driver's plan version
  size_t stale_morsels_ = 0;
};

}  // namespace nipo
