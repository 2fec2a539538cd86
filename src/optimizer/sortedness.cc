#include "optimizer/sortedness.h"

/// \file sortedness.cc
/// The Sections 5.5-5.6 sortedness judge: compares observed probe misses
/// against the Equation 1 random-access prediction to score how
/// co-clustered a probed relation is with the scan order.

namespace nipo {

SortednessVerdict JudgeSortedness(const CacheGeometry& l3_geometry,
                                  const ProbeObservation& observation) {
  SortednessVerdict verdict;
  verdict.predicted_random_misses = ExpectedRandomMisses(
      observation.relation, l3_geometry, observation.num_probes);
  if (verdict.predicted_random_misses <= 0) {
    verdict.score = 0;
    verdict.co_clustered = true;
    return verdict;
  }
  verdict.score =
      observation.sampled_l3_misses / verdict.predicted_random_misses;
  verdict.co_clustered = verdict.score < kCoClusteredScore;
  return verdict;
}

}  // namespace nipo
