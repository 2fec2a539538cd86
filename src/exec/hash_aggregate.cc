#include "exec/hash_aggregate.h"

#include <algorithm>
#include <limits>

#include "exec/simd.h"

/// \file hash_aggregate.cc
/// Instrumented hash GROUP BY: binds group/payload columns, runs the
/// optional predicate chain in its configured order through the shared
/// blocked-selection primitive (exec/operators.cc, SIMD-kernel-backed),
/// and accumulates SUM/COUNT per group through the PMU-visible hash
/// table, probing it with block-level SIMD hashing + home-slot prefetch.

namespace nipo {

namespace {

Result<ColumnView> Bind(const Table& table, const std::string& name) {
  NIPO_ASSIGN_OR_RETURN(const ColumnBase* column, table.GetColumn(name));
  return ColumnView::Bind(column);
}

}  // namespace

Result<HashAggregateResult> ExecuteHashAggregate(
    const HashAggregateSpec& spec, Pmu* pmu) {
  if (pmu == nullptr) return Status::InvalidArgument("null pmu");
  if (spec.table == nullptr) return Status::InvalidArgument("null table");
  NIPO_ASSIGN_OR_RETURN(ColumnView group_col,
                        Bind(*spec.table, spec.group_column));
  if (group_col.type() == DataType::kDouble) {
    return Status::TypeMismatch("group column must be integer");
  }
  std::vector<ColumnView> filter_cols;
  for (const PredicateSpec& filter : spec.filters) {
    NIPO_ASSIGN_OR_RETURN(ColumnView c, Bind(*spec.table, filter.column));
    filter_cols.push_back(c);
  }
  std::vector<ColumnView> agg_cols;
  for (const AggregateSpec& agg : spec.aggregates) {
    NIPO_ASSIGN_OR_RETURN(ColumnView c, Bind(*spec.table, agg.column));
    agg_cols.push_back(c);
  }

  HashAggregateResult result;
  result.input_rows = spec.table->num_rows();
  if (result.input_rows > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "input exceeds the 2^32-row block-gather range");
  }

  // Aggregation state: group key -> dense state index; sums held in
  // per-aggregate arrays plus a count array. Sized generously; grows on
  // demand.
  InstrumentedHashTable groups(64, pmu);
  std::vector<int64_t> group_keys;  // state index -> group key
  std::vector<uint64_t> counts;
  std::vector<std::vector<int64_t>> sums(spec.aggregates.size());
  // Track branch sites: one per filter position + loop back-edge.
  const size_t loop_site = spec.filters.size();
  pmu->EnsureBranchSites(spec.filters.size() + 1);

  // Blocked operator-at-a-time loop, mirroring PipelineExecutor: per
  // block, the filter chain runs through the shared blocked-selection
  // primitive, survivors feed one group-key gather, a batched (SIMD
  // block hashing + prefetch, per-row booked) group-table probe, and one
  // gather per aggregate column.
  const size_t num_rows = spec.table->num_rows();
  SelectionScratch scratch;
  DecodeScratch decode;
  std::vector<uint32_t> state_idx;
  std::vector<int64_t> block_groups(kSimBlockRows);
  std::vector<uint64_t> block_hashes(kSimBlockRows);
  Status block_error = Status::OK();
  ForEachSimBlock(0, num_rows, [&](size_t block, size_t n) {
    if (!block_error.ok()) return;
    pmu->OnInstructions(n);  // loop bookkeeping
    scratch.BeginBlock(n);
    for (size_t f = 0; f < spec.filters.size() && scratch.active() > 0;
         ++f) {
      PredicateEvalArgs args;
      args.pmu = pmu;
      args.branch_site = f;
      args.column = &filter_cols[f];
      args.decode = &decode;
      args.block_begin = block;
      args.op = spec.filters[f].op;
      args.value = spec.filters[f].value;
      // The aggregate's filter chain has always booked plain compares
      // only (no extra_instructions).
      args.extra_instructions = 0.0;
      EvalPredicateBlock(args, &scratch);
    }
    // No filters: every block row survives (identity selection).
    scratch.MaterializeDense();
    const size_t active = scratch.active();
    const uint32_t* sel = scratch.sel();
    result.passed_filter += active;

    if (active > 0) {
      const ScanRun group_run =
          group_col.ScanBlock(pmu, block, sel, active, &decode);
      state_idx.resize(active);
      for (size_t j = 0; j < active; ++j) {
        block_groups[j] = ScanRunValueAsInt64(group_run, j);
      }
      simd::HashKeys(block_groups.data(), active, block_hashes.data());
      for (size_t j = 0; j < active; ++j) {
        groups.PrefetchSlot(block_hashes[j]);
      }
      for (size_t j = 0; j < active; ++j) {
        const int64_t group = block_groups[j];
        int64_t state_index = 0;
        if (!groups.LookupPrehashed(group, block_hashes[j], &state_index)) {
          state_index = static_cast<int64_t>(counts.size());
          // A growing group table would rehash; with the small group
          // domains of the workloads here the initial size suffices.
          const Status st =
              groups.InsertPrehashed(group, block_hashes[j], state_index);
          if (!st.ok()) {
            block_error = st;
            return;
          }
          group_keys.push_back(group);
          counts.push_back(0);
          for (auto& s : sums) s.push_back(0);
        }
        ++counts[static_cast<size_t>(state_index)];
        state_idx[j] = static_cast<uint32_t>(state_index);
      }
      for (size_t a = 0; a < agg_cols.size(); ++a) {
        const ScanRun agg_run =
            agg_cols[a].ScanBlock(pmu, block, sel, active, &decode);
        pmu->OnInstructions(active);  // the adds
        for (size_t j = 0; j < active; ++j) {
          sums[a][state_idx[j]] += ScanRunValueAsInt64(agg_run, j);
        }
      }
    }
    pmu->OnBranchRun(loop_site, /*taken=*/true, n);
  });
  NIPO_RETURN_NOT_OK(block_error);

  // Emit groups sorted by key (result formatting is not measured work).
  std::map<int64_t, size_t> key_to_state;
  for (size_t state = 0; state < group_keys.size(); ++state) {
    key_to_state.emplace(group_keys[state], state);
  }
  for (const auto& [group, state_index] : key_to_state) {
    GroupResult g;
    g.group = group;
    g.count = counts[state_index];
    for (const auto& s : sums) {
      g.sums.push_back(s[state_index]);
    }
    result.groups.push_back(std::move(g));
  }
  result.table_base = groups.slots_base();
  return result;
}

}  // namespace nipo
