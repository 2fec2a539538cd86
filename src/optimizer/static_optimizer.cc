#include "optimizer/static_optimizer.h"

#include <algorithm>

#include "exec/pipeline.h"

/// \file static_optimizer.cc
/// The compile-time baseline: rank-orders an operator chain once from
/// histogram selectivity estimates using the classic
/// (selectivity - 1) / cost criterion.

namespace nipo {

StaticPlan PlanStatically(const std::vector<OperatorSpec>& ops,
                          const TableStatistics& stats) {
  StaticPlan plan;
  plan.rankings.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    StaticRanking r;
    r.original_index = i;
    r.estimated_selectivity = stats.EstimateOperatorSelectivity(ops[i]);
    if (ops[i].kind == OperatorSpec::Kind::kPredicate) {
      r.cost = 1.0 + ops[i].predicate.extra_instructions /
                         LoopCostModel::kCompareInstructions / 3.0;
    } else {
      r.cost = kStaticProbeCost;
    }
    r.rank = (r.estimated_selectivity - 1.0) / std::max(r.cost, 1e-9);
    plan.rankings.push_back(r);
  }
  std::stable_sort(plan.rankings.begin(), plan.rankings.end(),
                   [](const StaticRanking& a, const StaticRanking& b) {
                     return a.rank < b.rank;
                   });
  plan.order.reserve(ops.size());
  for (const StaticRanking& r : plan.rankings) {
    plan.order.push_back(r.original_index);
  }
  return plan;
}

}  // namespace nipo
