#pragma once

#include <map>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/hash_table.h"
#include "storage/table.h"

/// \file hash_aggregate.h
/// A PMU-instrumented hash GROUP BY with SUM/COUNT aggregates -- the
/// operator behind the TPC-H Q1 example and the "other relational
/// operators" direction of the paper's future work. Optional filter
/// predicates run in a configurable order before grouping, so the
/// aggregation integrates with the progressive PEO machinery.

namespace nipo {

/// \brief One SUM aggregate over a column (int32/int64; values summed as
/// int64 -- the TPC-H money/quantity domains are integral here).
struct AggregateSpec {
  std::string column;
};

/// \brief Group-by description.
struct HashAggregateSpec {
  const Table* table = nullptr;
  /// Integer column whose values identify the group.
  std::string group_column;
  /// Filter predicates evaluated (in order) before grouping.
  std::vector<PredicateSpec> filters;
  std::vector<AggregateSpec> aggregates;
};

/// \brief One output group.
struct GroupResult {
  int64_t group = 0;
  uint64_t count = 0;
  std::vector<int64_t> sums;  ///< parallel to HashAggregateSpec::aggregates
};

/// \brief Aggregation outcome; groups sorted by key for stable output.
struct HashAggregateResult {
  uint64_t input_rows = 0;
  uint64_t passed_filter = 0;
  std::vector<GroupResult> groups;
  /// Final base address of the internal group table. Simulated cache
  /// counters hash real addresses, so two runs are counter-comparable
  /// only if the allocator handed them the same block; the cross-mode
  /// differential tests skip when it did not.
  const void* table_base = nullptr;
};

/// \brief Executes the aggregation on `pmu`'s simulated machine.
Result<HashAggregateResult> ExecuteHashAggregate(
    const HashAggregateSpec& spec, Pmu* pmu);

}  // namespace nipo
