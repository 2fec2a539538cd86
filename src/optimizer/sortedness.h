#pragma once

#include "cost/join_model.h"
#include "hw/pmu.h"

/// \file sortedness.h
/// Sortedness / co-clusteredness detection from performance counters
/// (paper Sections 5.5-5.6).
///
/// The paper's insight: the *number of qualifying tuples per vector* is
/// identical for every join order, so tuple counting cannot reveal which
/// order is cheap -- but the cache-miss counter can. Equation 1 predicts
/// the misses a join probe would incur if its access pattern were random;
/// a sampled value far below that prediction reveals that the probed
/// table is co-clustered with the fact table (or the data is sorted), so
/// the probe is cheap and should run early.

namespace nipo {

/// \brief One probe stage's sampled behaviour.
struct ProbeObservation {
  JoinRelationSpec relation;     ///< probed dimension
  double num_probes = 0;         ///< accesses issued into it
  double sampled_l3_misses = 0;  ///< misses attributed to the probe
};

/// \brief Verdict about a probe's locality.
struct SortednessVerdict {
  double predicted_random_misses = 0;  ///< Equation 1
  double score = 0;  ///< sampled/predicted; ~1 random, ~0 co-clustered
  bool co_clustered = false;
};

/// Score below which a probe counts as co-clustered. 0.5 leaves a wide
/// margin on both sides of the bimodal distribution the experiments show.
inline constexpr double kCoClusteredScore = 0.5;

/// \brief Co-clustered iff sampled misses fall below
/// kCoClusteredScore * (Equation 1 prediction).
SortednessVerdict JudgeSortedness(const CacheGeometry& l3_geometry,
                                  const ProbeObservation& observation);

}  // namespace nipo
