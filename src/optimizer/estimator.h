#pragma once

#include <cstdint>
#include <vector>

#include "cost/counter_model.h"
#include "optimizer/bounds.h"
#include "optimizer/nelder_mead.h"

/// \file estimator.h
/// The learning algorithm (paper Section 4.2): infer the individual
/// selectivities of a predicate chain from one vector's performance
/// counter sample.
///
/// The sampled counters -- branches not taken, mispredicted-taken,
/// mispredicted-not-taken, L3 accesses -- are compared against the
/// analytic predictions of cost/counter_model.h; the candidate selectivity
/// vector minimizing the difference (the Equation 10 objective) is found
/// by multi-start Nelder-Mead over the Section 4.1-restricted search
/// space, with start points from Section 4.3.
///
/// Parameterization: the search runs in *cumulative access fraction*
/// space pi_1..pi_{n-1} (pi_k = fraction of input tuples reaching
/// predicate k+1), with pi_n pinned to tupsout/tupsin -- the output
/// cardinality is known exactly from the branches-taken identity, so the
/// problem has n-1 free dimensions and the monotonicity constraint
/// pi_{k+1} <= pi_k is enforced with a penalty.

namespace nipo {

/// Which counters participate in the objective (ablation knob;
/// kBranchesOnly is also used for pipelines containing probes whose cache
/// behaviour the scan model does not cover).
enum class CounterSet : int {
  kAll,           ///< BNT + both misprediction splits + L3 accesses
  kBranchesOnly,  ///< BNT + both misprediction splits
  kBntOnly,       ///< branches-not-taken alone (under-determined for n>2)
};

/// \brief Estimator tuning. Defaults follow the paper: Nelder-Mead with
/// 10k max iterations, multi-start until 5 stalls or 2p starts.
struct EstimatorConfig {
  NelderMeadOptions nelder_mead{
      .max_iterations = 10'000,
      .abs_tolerance = 1e-6,  // objective is normalized (relative errors)
      .initial_step = 0.15,
  };
  /// Maximum start points m; 0 means the paper's m = 2p rule.
  int max_starts = 0;
  /// Stop after this many consecutive starts without improvement
  /// (paper: n < 5).
  int stall_limit = 5;
  CounterSet counter_set = CounterSet::kAll;
  bool include_vertex_starts = true;
};

/// \brief One vector's sample, as gathered by the driver.
struct CounterSample {
  double tuples_in = 0;
  double tuples_out = 0;  ///< qualifying tuples (exact, from 2n - bT)
  CounterEstimate counters;
};

/// \brief Estimation result.
struct SelectivityEstimate {
  /// Per-predicate selectivities in the sampled evaluation order.
  std::vector<double> selectivities;
  /// Cumulative access fractions (selectivity products).
  std::vector<double> access_fractions;
  double objective = 0.0;  ///< final Equation 10 value
  int starts_used = 0;
  int total_nm_iterations = 0;
};

/// \brief Runs the Section 4.2 learning algorithm.
///
/// `shape` describes the sampled evaluation order (widths, tuple count,
/// predictor, cache line). Returns InvalidArgument for inconsistent
/// samples (tuples_out > tuples_in, counter/shape size mismatch).
Result<SelectivityEstimate> EstimateSelectivities(
    const ScanShape& shape, const CounterSample& sample,
    const EstimatorConfig& config);

/// \brief The Equation 10 objective restricted to the chosen counter set;
/// exposed for tests and for the ablation benches.
double EstimationObjective(const ScanShape& shape,
                           const CounterEstimate& sampled,
                           const std::vector<double>& selectivities,
                           CounterSet counter_set);

}  // namespace nipo
