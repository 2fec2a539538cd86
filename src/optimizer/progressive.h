#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/parallel_driver.h"
#include "exec/vector_driver.h"
#include "optimizer/estimator.h"
#include "optimizer/sortedness.h"
#include "optimizer/statistics.h"

/// \file progressive.h
/// The progressive optimization driver (paper Section 4.4, Figure 10),
/// in a single-threaded and a sharded-parallel form (DESIGN.md "Parallel
/// execution").
///
/// Execution proceeds vector by vector. Every `reopt_interval` vectors the
/// driver takes the latest counter sample, runs the Section 4.2 learning
/// algorithm to estimate the selectivity of every operator in the current
/// evaluation order, ranks the operators (ascending selectivity for plain
/// predicates; cost-weighted rank when expensive predicates or join
/// probes participate, with probe cost informed by the Section 5.5-5.6
/// sortedness detector), and -- if the ranking disagrees with the current
/// order -- switches the order for subsequent vectors (the JIT-recompile /
/// primitive-rechain step). The next vector *validates* the switch: if
/// its cycles-per-tuple deteriorate, the old order is re-established
/// (Section 4.4's "if they deteriorate, the old order is reestablished").
///
/// Under sharded execution ParallelProgressiveCoordinator feeds this same
/// optimizer: worker morsel samples are merged into windows of
/// `reopt_interval` same-order morsels (SampleMerger; counter sums over
/// same-order morsels are sufficient statistics for the estimators), each
/// window is one decision point, and every resulting (order, forms) change
/// is broadcast to all workers at morsel boundaries.

namespace nipo {

/// \brief How RankOrderOperators prices an operator when ranking
/// (DESIGN.md Section 8, "SIMD-aware pricing").
enum class CostPricing : int {
  /// The original unit-cost rule: plain predicates cost 1, expensive
  /// predicates add their extra instructions, probes their miss-informed
  /// term. Exactly the pre-SIMD behaviour.
  kUnit = 0,
  /// Predicates priced in simulated cycles of their *branching* form
  /// (compare + branch + Markov misprediction penalty); probes keep the
  /// unit-rule term, converted to the same cycle scale.
  kBranchCycles = 1,
  /// min(branching, branch-free) cycles per predicate; the optimizer also
  /// switches each predicate to its cheaper form (PipelineExecutor::
  /// SetForms), so low-selectivity predicates run branch-free.
  kSimdAware = 2,
};

/// \brief Driver configuration.
struct ProgressiveConfig {
  size_t vector_size = 65'536;
  /// Vectors between optimization attempts (the paper's ReopInt; its
  /// evaluation uses 10, 75 and 200).
  size_t reopt_interval = 10;
  EstimatorConfig estimator;
  /// Validate the vector after a reorder and revert when its
  /// cycles-per-tuple regress past a fixed factor (kRevertThreshold in
  /// progressive.cc).
  bool validate_and_revert = true;
  /// Every k-th optimization additionally explores a perturbed order to
  /// surface correlation effects (Section 4.5); 0 disables exploration.
  size_t explore_period = 0;
  /// Operator pricing rule (kUnit reproduces the pre-SIMD behaviour).
  CostPricing pricing = CostPricing::kUnit;
};

/// \brief One evaluation-order (and/or predicate-form) change performed
/// during execution.
struct PeoChange {
  size_t vector_index = 0;
  std::vector<size_t> old_order;
  std::vector<size_t> new_order;
  /// Predicate forms by original operator index before/after the change
  /// (equal to each other unless pricing is kSimdAware; a change may be
  /// forms-only, with old_order == new_order).
  std::vector<PredicateForm> old_forms;
  std::vector<PredicateForm> new_forms;
  bool reverted = false;      ///< validation rolled it back
  bool exploration = false;   ///< came from the correlation explorer
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
    std::vector<PredicateForm> old_forms;
    double old_cycles_per_tuple = 0;
    bool exploration = false;
  };

  void HandleVector(const VectorSample& sample);
  void Optimize(const VectorSample& sample);

  PipelineExecutor* executor_;
  ProgressiveConfig config_;
  ProgressiveReport report_;
  std::optional<PendingValidation> pending_;
  double last_cycles_per_tuple_ = 0;
  size_t optimization_count_ = 0;
  /// Hysteresis: an order (+ forms, under kSimdAware) that validation
  /// just rolled back is not re-proposed for `hysteresis_ttl_`
  /// optimization cycles, preventing estimate-noise oscillation
  /// (propose -> revert -> propose -> ...) while still allowing the
  /// order back in once conditions change.
  std::vector<size_t> recently_reverted_;
  std::vector<PredicateForm> recently_reverted_forms_;
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
/// decision point per window, so estimate, rank, forms, validate/revert
/// and hysteresis are exactly the single-threaded driver's.
///
/// That optimizer drives a *control* executor: a non-executing pipeline
/// compiled over the same query that provides operator metadata and
/// carries the authoritative current order and forms. Whenever a window
/// changes either, the new plan is returned to the driver for broadcast;
/// workers apply it at morsel boundaries. The coordinator's broadcast
/// count equals ParallelDriver's plan version (both start at 0 and
/// advance once per returned plan), which is how
/// MorselRecord::order_version identifies stale-plan morsels.
class ParallelProgressiveCoordinator {
 public:
  ParallelProgressiveCoordinator(PipelineExecutor* control,
                                 ProgressiveConfig config);

  /// ParallelDriver::MorselHook entry point. Returns the plan to broadcast
  /// when a window changes the order or forms (a reorder, a form switch
  /// or a validation revert).
  std::optional<PlanBroadcast> OnMorsel(const MorselRecord& record);

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
