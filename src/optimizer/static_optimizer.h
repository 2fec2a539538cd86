#pragma once

#include <vector>

#include "exec/operators.h"
#include "optimizer/statistics.h"

/// \file static_optimizer.h
/// The compile-time optimizer baseline: orders a predicate chain once,
/// before execution, from histogram-based selectivity estimates (the
/// "high quality decisions at query compilation time" the paper argues
/// progressive optimization renders unnecessary, Section 4.5).
///
/// It is intentionally a faithful, competent classic optimizer -- rank
/// ordering by (selectivity - 1) / cost -- so that experiments comparing
/// it with progressive optimization measure the *information* gap
/// (stale/sampled statistics, skew, correlation, mid-data distribution
/// changes), not an implementation handicap.

namespace nipo {

/// \brief One ranked operator with its static estimate.
struct StaticRanking {
  size_t original_index = 0;
  double estimated_selectivity = 1.0;
  double cost = 1.0;
  double rank = 0.0;  ///< (selectivity - 1) / cost; ascending = earlier
};

/// \brief The chosen order plus per-operator detail for inspection.
struct StaticPlan {
  std::vector<size_t> order;  ///< original indices, evaluation order
  std::vector<StaticRanking> rankings;  ///< sorted by rank
};

/// Cost the static optimizer assigns a probe, in units of one plain
/// predicate's.
inline constexpr double kStaticProbeCost = 2.0;

/// \brief Orders `ops` by the classic rank rule using `stats` for
/// selectivities. Probes get kUnknownSelectivity and kStaticProbeCost
/// (the static optimizer cannot see probe locality -- that is exactly the
/// paper's Section 5.5-5.6 point).
StaticPlan PlanStatically(const std::vector<OperatorSpec>& ops,
                          const TableStatistics& stats);

}  // namespace nipo
