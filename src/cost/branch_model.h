#pragma once

#include <vector>

#include "cost/markov.h"

/// \file branch_model.h
/// Branch-event estimates for multi-selection queries (paper Section 3.2,
/// "For a multi-selection query, we extend our branch estimations to model
/// each predicate p1..pn ... we replace the number of input tuples by the
/// number of output tuples of the previous predicate").
///
/// Branch layout of the generated scan loop (Section 2.1/2.2.1):
///  - one conditional branch per predicate: NOT taken when the tuple
///    qualifies (fall through to the next predicate), taken when it fails
///    (jump to the loop end);
///  - one loop back-edge branch per tuple, (almost) always taken.
///
/// Consequently branches-taken per tuple is 1 for a fully qualifying tuple
/// and 2 for a failing one, giving the paper's qualifying-tuple identity
/// qualified = 2n - branches_taken, and branches-not-taken at predicate i
/// equals the number of tuples that qualified predicate i, i.e. the number
/// of accesses to the *next* column in the evaluation order.

namespace nipo {

/// \brief Expected branch-event counts (absolute, not fractions).
struct BranchEstimate {
  double branches = 0;  ///< conditional branches (predicates + back-edge)
  double branches_taken = 0;
  double branches_not_taken = 0;
  double taken_mp = 0;
  double not_taken_mp = 0;
  double mp = 0;

  BranchEstimate& operator+=(const BranchEstimate& other) {
    branches += other.branches;
    branches_taken += other.branches_taken;
    branches_not_taken += other.branches_not_taken;
    taken_mp += other.taken_mp;
    not_taken_mp += other.not_taken_mp;
    mp += other.mp;
    return *this;
  }
};

/// \brief Branch events for a single predicate evaluated on
/// `input_tuples` tuples with selectivity p.
BranchEstimate EstimatePredicateBranches(const PredictorConfig& config,
                                         double input_tuples, double p);

/// \brief Branch events for the whole scan loop: the predicate chain in
/// evaluation order plus the loop back-edge (always taken, perfectly
/// predicted in steady state), one per tuple.
///
/// \param selectivities per-predicate selectivities in evaluation order;
///        predicate i sees input_tuples * prod_{j<i} selectivities[j].
BranchEstimate EstimateScanBranches(const PredictorConfig& config,
                                    double input_tuples,
                                    const std::vector<double>& selectivities);

}  // namespace nipo
