#include "optimizer/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "optimizer/start_points.h"

/// \file estimator.cc
/// The Section 4.2 learning algorithm: the relative-distance objective
/// between sampled and predicted counters (Equation 10), minimized by
/// multi-start Nelder-Mead inside the Section 4.1 bounds, yielding
/// per-predicate selectivity estimates.

namespace nipo {

namespace {

/// Weight of the monotonicity-violation penalty in the objective.
constexpr double kMonotonicityPenalty = 100.0;

double RelativeTerm(double sampled, double predicted) {
  return std::abs(sampled - predicted) / std::max(std::abs(sampled), 1.0);
}

}  // namespace

double EstimationObjective(const ScanShape& shape,
                           const CounterEstimate& sampled,
                           const std::vector<double>& selectivities,
                           CounterSet counter_set) {
  NIPO_CHECK(selectivities.size() == shape.predicate_widths.size());
  const BranchEstimate predicted =
      EstimateScanBranches(shape.predictor, shape.num_tuples, selectivities,
                           shape.branch_free, shape.include_loop_branch);
  // Branches-not-taken is the one *exact* counter (paper Section 4.1:
  // "independent of runtime or CPU characteristics and thus exact"), so
  // it carries extra weight against the statistical misprediction and
  // cache counters.
  constexpr double kBntWeight = 4.0;
  double cost =
      kBntWeight *
      RelativeTerm(sampled.branches_not_taken, predicted.branches_not_taken);
  if (counter_set == CounterSet::kAll ||
      counter_set == CounterSet::kBranchesOnly) {
    cost += RelativeTerm(sampled.taken_mp, predicted.taken_mp);
    cost += RelativeTerm(sampled.not_taken_mp, predicted.not_taken_mp);
  }
  // Only kAll reads the cache counter; the other sets skip its model
  // (one std::pow per column).
  if (counter_set == CounterSet::kAll) {
    cost += RelativeTerm(sampled.l3_accesses,
                         PredictScanL3Accesses(shape, selectivities));
  }
  return cost;
}

Result<SelectivityEstimate> EstimateSelectivities(
    const ScanShape& shape, const CounterSample& sample,
    const EstimatorConfig& config) {
  const size_t n = shape.predicate_widths.size();
  if (n == 0) {
    return Status::InvalidArgument("no predicates to estimate");
  }
  if (sample.tuples_in <= 0) {
    return Status::InvalidArgument("sample has no input tuples");
  }
  if (sample.tuples_out < 0 || sample.tuples_out > sample.tuples_in) {
    return Status::InvalidArgument("inconsistent output cardinality");
  }
  const double overall = sample.tuples_out / sample.tuples_in;

  SelectivityEstimate best;
  if (n == 1) {
    // One predicate: the output cardinality determines it exactly.
    best.selectivities = {overall};
    best.access_fractions = {overall};
    best.objective = 0.0;
    best.starts_used = 0;
    return best;
  }

  // Restrict the search space (Section 4.1). BNT bounds need the sampled
  // BNT restricted to predicate branches; the shape's loop branch does not
  // contribute (the back-edge is always taken).
  NIPO_ASSIGN_OR_RETURN(
      SearchBounds bounds,
      RestrictSearchSpace(sample.tuples_in, sample.tuples_out,
                          sample.counters.branches_not_taken, n));

  // Free dimensions: cumulative access fractions pi_1..pi_{n-1}.
  const size_t dims = n - 1;
  std::vector<double> lower(dims), upper(dims);
  for (size_t i = 0; i < dims; ++i) {
    lower[i] = bounds.lower[i] / sample.tuples_in;
    upper[i] = bounds.upper[i] / sample.tuples_in;
  }

  // Candidate point -> full selectivity vector, in scratch buffers the
  // objective reuses across its thousands of calls.
  std::vector<double> acc(n);
  std::vector<double> sel(n);
  auto to_selectivities = [&](const std::vector<double>& pi) {
    for (size_t i = 0; i < dims; ++i) acc[i] = pi[i] * sample.tuples_in;
    acc[n - 1] = sample.tuples_out;
    AccessesToSelectivities(sample.tuples_in, acc, &sel);
  };

  auto objective = [&](const std::vector<double>& pi) {
    // Monotonicity penalty: pi must be non-increasing and >= overall.
    double penalty = 0.0;
    double prev = 1.0;
    for (size_t i = 0; i < dims; ++i) {
      penalty += std::max(0.0, pi[i] - prev);
      penalty += std::max(0.0, overall - pi[i]);
      prev = pi[i];
    }
    to_selectivities(pi);
    return EstimationObjective(shape, sample.counters, sel,
                               config.counter_set) +
           kMonotonicityPenalty * penalty;
  };

  const int max_starts =
      config.max_starts > 0 ? config.max_starts : static_cast<int>(2 * n);

  StartPointGenerator starts(lower, upper,
                             EvenSplitNullHypothesis(overall, dims, n),
                             config.include_vertex_starts);

  double best_value = std::numeric_limits<double>::infinity();
  std::vector<double> best_pi;
  int stall = 0;
  int starts_used = 0;
  int total_iters = 0;
  while (starts_used < max_starts && stall < config.stall_limit) {
    const std::vector<double> start = starts.Next();
    NIPO_ASSIGN_OR_RETURN(
        NelderMeadResult run,
        NelderMeadMinimize(objective, start, lower, upper,
                           config.nelder_mead));
    ++starts_used;
    total_iters += run.iterations;
    if (run.value + 1e-12 < best_value) {
      best_value = run.value;
      best_pi = run.x;
      stall = 0;
    } else {
      ++stall;
    }
  }
  NIPO_CHECK(!best_pi.empty());

  // Repair any residual monotonicity violation before reporting.
  double prev = 1.0;
  for (double& v : best_pi) {
    v = std::clamp(v, overall, prev);
    prev = v;
  }

  to_selectivities(best_pi);
  best.selectivities = sel;
  best.access_fractions.resize(n);
  for (size_t i = 0; i < dims; ++i) best.access_fractions[i] = best_pi[i];
  best.access_fractions[n - 1] = overall;
  best.objective = best_value;
  best.starts_used = starts_used;
  best.total_nm_iterations = total_iters;
  return best;
}

}  // namespace nipo
