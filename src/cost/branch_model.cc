#include "cost/branch_model.h"

/// \file branch_model.cc
/// Per-predicate branch-event estimates: scales the Markov-chain
/// misprediction probabilities by the tuple counts flowing into each
/// predicate of the chain.

namespace nipo {

BranchEstimate EstimatePredicateBranches(const PredictorConfig& config,
                                         double input_tuples, double p) {
  const BranchProbabilities probs = ComputeBranchProbabilities(config, p);
  BranchEstimate out;
  out.branches = input_tuples;
  out.branches_not_taken = input_tuples * p;        // qualifying tuples
  out.branches_taken = input_tuples * (1.0 - p);    // failing tuples
  out.taken_mp = input_tuples * probs.taken_mp;
  out.not_taken_mp = input_tuples * probs.not_taken_mp;
  out.mp = input_tuples * probs.mp;
  return out;
}

BranchEstimate EstimateScanBranches(const PredictorConfig& config,
                                    double input_tuples,
                                    const std::vector<double>& selectivities) {
  BranchEstimate total;
  double tuples = input_tuples;
  for (const double p : selectivities) {
    total += EstimatePredicateBranches(config, tuples, p);
    tuples *= p;
  }
  // The back-edge is taken for every tuple; a saturating-counter
  // predictor predicts it perfectly in steady state (selectivity 0 from
  // the chain's point of view: never "not taken").
  BranchEstimate loop;
  loop.branches = input_tuples;
  loop.branches_taken = input_tuples;
  total += loop;
  return total;
}

}  // namespace nipo
