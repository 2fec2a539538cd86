#include "exec/pipeline.h"

#include <algorithm>
#include <limits>

#include "exec/simd.h"

/// \file pipeline.cc
/// The instrumented blocked operator-at-a-time scan loop: operator-chain
/// evaluation in a configurable order, every load/compare/branch reported
/// to the Pmu as per-block runs (coalesced by its batched reporting
/// layer). A predicate compares its column's run, an FK probe the
/// dimension values gathered at its keys; both runs go through one
/// compare-and-book step whose host-side evaluation is the
/// runtime-selected SIMD kernel of exec/simd.h.

namespace nipo {

namespace {

Status BindColumn(const Table& table, const std::string& name,
                  ColumnView* out) {
  auto col = table.GetColumn(name);
  if (!col.ok()) return col.status();
  NIPO_ASSIGN_OR_RETURN(*out, ColumnView::Bind(col.ValueOrDie()));
  return Status::OK();
}

template <typename T>
void ProductLoop(const ScanRun& run, size_t active, double* prod) {
  const T* base = reinterpret_cast<const T*>(run.data) + run.base_row;
  for (size_t j = 0; j < active; ++j) {
    const size_t offset = run.gather ? run.gather[j] : j;
    prod[j] *= static_cast<double>(base[offset]);
  }
}

/// Multiplies the run's elements into prod[]: run.gather carries the
/// selection for plain columns; decoded runs are already dense in j.
void ProductDispatch(const ScanRun& run, size_t active, double* prod) {
  switch (run.type) {
    case DataType::kInt32:
      ProductLoop<int32_t>(run, active, prod);
      return;
    case DataType::kInt64:
      ProductLoop<int64_t>(run, active, prod);
      return;
    case DataType::kDouble:
      ProductLoop<double>(run, active, prod);
      return;
  }
}

}  // namespace

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

std::string OperatorSpec::ToString() const {
  std::string out;
  if (kind == Kind::kPredicate) {
    out = predicate.column;
    out += CompareOpToString(predicate.op);
    out += std::to_string(predicate.value);
  } else {
    out = "probe(";
    out += probe.dimension != nullptr ? probe.dimension->name() : "?";
    out += ".";
    out += probe.filter_column;
    out += CompareOpToString(probe.op);
    out += std::to_string(probe.value);
    out += ")";
  }
  return out;
}

Result<std::unique_ptr<PipelineExecutor>> PipelineExecutor::Compile(
    const Table& table, std::vector<OperatorSpec> ops,
    std::vector<std::string> payload_columns, Pmu* pmu,
    InstrumentationMode mode) {
  if (pmu == nullptr) {
    return Status::InvalidArgument("PipelineExecutor requires a Pmu");
  }
  if (ops.empty()) {
    return Status::InvalidArgument("pipeline needs at least one operator");
  }
  auto exec = std::unique_ptr<PipelineExecutor>(new PipelineExecutor());
  exec->num_rows_ = table.num_rows();
  exec->pmu_ = pmu;
  exec->mode_ = mode;

  for (OperatorSpec& spec : ops) {
    CompiledOp c;
    if (spec.kind == OperatorSpec::Kind::kPredicate) {
      NIPO_RETURN_NOT_OK(BindColumn(table, spec.predicate.column, &c.column));
      c.prunable_fraction = c.column.ZonePrunableFraction(
          spec.predicate.op, spec.predicate.value);
    } else {
      if (spec.probe.dimension == nullptr) {
        return Status::InvalidArgument("FK probe without dimension table");
      }
      NIPO_RETURN_NOT_OK(BindColumn(table, spec.probe.fk_column, &c.column));
      if (c.column.type() != DataType::kInt32) {
        return Status::TypeMismatch("FK column '" + spec.probe.fk_column +
                                    "' must be int32 (positional key)");
      }
      NIPO_RETURN_NOT_OK(BindColumn(*spec.probe.dimension,
                                    spec.probe.filter_column, &c.dim_column));
      // 2^31 (not 2^32): AVX2 gathers sign-extend their 32-bit indices,
      // so probe keys must stay in the non-negative int32 range.
      if (c.dim_column.size() > (uint64_t{1} << 31)) {
        return Status::InvalidArgument(
            "dimension table exceeds the 2^31-row probe-key range");
      }
    }
    c.spec = std::move(spec);
    exec->ops_.push_back(std::move(c));
  }

  for (const std::string& name : payload_columns) {
    CompiledPayload p;
    NIPO_RETURN_NOT_OK(BindColumn(table, name, &p.column));
    exec->payloads_.push_back(p);
  }

  exec->order_.resize(exec->ops_.size());
  for (size_t i = 0; i < exec->order_.size(); ++i) exec->order_[i] = i;
  exec->enum_pass_.assign(exec->ops_.size(), 0);
  // One branch site per evaluation position plus the loop back-edge.
  exec->loop_site_ = exec->ops_.size();
  pmu->EnsureBranchSites(exec->ops_.size() + 1);
  return exec;
}

VectorResult PipelineExecutor::ExecuteRange(size_t begin, size_t end) {
  NIPO_CHECK(begin <= end && end <= num_rows_);
  if (!error_.ok()) return VectorResult{};  // latched: executor is dead
  VectorResult result;
  result.input_tuples = end - begin;
  ForEachSimBlock(begin, end, [&](size_t block, size_t n) {
    if (!error_.ok()) return;
    ExecuteBlock(block, n, &result);
  });
  return result;
}

bool PipelineExecutor::ZoneSkipBlock(size_t block_begin, size_t n) {
  // Zone-map prologue: a predicate whose per-storage-block min/max
  // refute every overlapped block proves the whole execution block dead
  // before any per-tuple work. Checks consult zone maps in evaluation
  // order and stop at the first refutation; each consulted map books
  // StorageCostModel::kZoneCheckInstructions. Plain columns have no
  // zone maps, so this books nothing and skips nothing -- the
  // encodings-off counter stream is untouched.
  for (size_t idx : order_) {
    const CompiledOp& op = ops_[idx];
    if (op.spec.kind != OperatorSpec::Kind::kPredicate) continue;
    if (!op.column.has_zone_maps()) continue;
    const size_t checks = op.column.ZoneChecksForRange(block_begin, n);
    pmu_->OnInstructions(
        static_cast<uint64_t>(StorageCostModel::kZoneCheckInstructions) *
        checks);
    if (op.column.ZoneRefutesRange(block_begin, n, op.spec.predicate.op,
                                   op.spec.predicate.value)) {
      return true;
    }
  }
  return false;
}

bool PipelineExecutor::ProbeRun(const CompiledOp& op, size_t block_begin,
                                ScanRun* run) {
  // FK columns are validated int32 at Compile time. The key run is read
  // from a local copy: a store to keys_ could alias *run's fields, which
  // would make the compiler reload them for every key.
  const ScanRun fk_run = *run;
  const size_t active = scratch_.active();
  const uint32_t* sel = scratch_.sel();
  pmu_->OnInstructions(
      static_cast<uint64_t>(LoopCostModel::kProbeAddressInstructions) *
      active);
  const uint64_t dim_rows = op.dim_column.size();
  keys_.resize(active);
  for (size_t j = 0; j < active; ++j) {
    const int64_t fk_value = ScanRunValueAsInt64(fk_run, j);
    const uint64_t key = static_cast<uint64_t>(fk_value);
    if (key >= dim_rows) {
      // Data-dependent and only discoverable here: latch instead of
      // aborting, before anything dereferences the dimension column at
      // the bad key. The drivers turn the latch into a failed query; the
      // block's partial work stays accounted.
      const uint32_t offset = sel ? sel[j] : static_cast<uint32_t>(j);
      error_ = Status::OutOfRange(
          "FK value " + std::to_string(fk_value) + " at row " +
          std::to_string(block_begin + offset) + " outside dimension (" +
          std::to_string(dim_rows) + " rows)");
      return false;
    }
    keys_[j] = static_cast<uint32_t>(key);
  }
  *run = op.dim_column.GatherRows(pmu_, keys_.data(), active, &decode_dim_);
  return true;
}

void PipelineExecutor::ExecuteBlock(size_t block_begin, size_t n,
                                    VectorResult* result) {
  const bool enumerator = mode_ == InstrumentationMode::kEnumerator;
  if (ZoneSkipBlock(block_begin, n)) {
    result->zone_skipped += n;
    return;
  }
  pmu_->OnInstructions(
      static_cast<uint64_t>(LoopCostModel::kLoopInstructions) * n);

  // The scratch holds block-relative offsets of still-active rows; the
  // first operator runs dense over the whole block without materializing
  // a selection vector.
  scratch_.BeginBlock(n);
  for (size_t pos = 0; pos < order_.size() && scratch_.active() > 0; ++pos) {
    const CompiledOp& op = ops_[order_[pos]];
    const size_t active = scratch_.active();
    const uint32_t* sel = scratch_.sel();
    // Each operator produces the run it compares. The view books the
    // fact-side column loads (the encoded bytes for compressed columns);
    // a probe then swaps in the dimension values gathered at its keys.
    const bool predicate = op.spec.kind == OperatorSpec::Kind::kPredicate;
    ScanRun run =
        op.column.ScanBlock(pmu_, block_begin, sel, active, &decode_fact_);
    if (!predicate && !ProbeRun(op, block_begin, &run)) return;
    const CompareOp cmp = predicate ? op.spec.predicate.op : op.spec.probe.op;
    const double value =
        predicate ? op.spec.predicate.value : op.spec.probe.value;
    const double extra_instructions =
        predicate ? op.spec.predicate.extra_instructions : 0.0;

    pmu_->OnInstructions(
        static_cast<uint64_t>(LoopCostModel::kCompareInstructions) * active);
    if (extra_instructions > 0) {
      pmu_->OnInstructions(static_cast<uint64_t>(extra_instructions) *
                           active);
    }
    // The kernel reads element j at run.base_row + (run.gather ?
    // run.gather[j] : j); survivor ids stay `sel` so committed offsets
    // remain block-relative rows even when the run is a decoded buffer.
    uint8_t* pass = scratch_.pass();
    uint32_t* next_sel = scratch_.next_sel();
    const size_t passed =
        simd::CompareSelect(run.type, run.data, run.base_row, cmp, value,
                            run.gather, sel, active, pass, next_sel);
    if (enumerator) {
      // Invasive instrumentation: increment an explicit pass counter
      // after each evaluation (Section 5.7's enumerator-based approach).
      pmu_->OnInstructions(
          static_cast<uint64_t>(LoopCostModel::kEnumeratorInstructions) *
          active);
      enum_pass_[pos] += passed;
    }
    // One branch per evaluated row, NOT taken when the tuple qualifies,
    // in row order as a tuple-at-a-time loop would emit it.
    pmu_->OnPredicateBranches(pos, pass, active);
    scratch_.Commit(passed);
  }

  const size_t active = scratch_.active();
  result->qualifying_tuples += active;
  if (active > 0 && !payloads_.empty()) {
    scratch_.MaterializeDense();
    const uint32_t* sel = scratch_.sel();
    prod_.assign(active, 1.0);
    for (const CompiledPayload& payload : payloads_) {
      const ScanRun run =
          payload.column.ScanBlock(pmu_, block_begin, sel, active,
                                   &decode_fact_);
      ProductDispatch(run, active, prod_.data());
    }
    pmu_->OnInstructions(
        static_cast<uint64_t>(LoopCostModel::kAggregateInstructions) *
        active);
    for (size_t j = 0; j < active; ++j) result->aggregate += prod_[j];
  }
  // Loop back-edge, taken once per block row.
  pmu_->OnBranchRun(loop_site_, /*taken=*/true, n);
}

Status PipelineExecutor::Reorder(const std::vector<size_t>& order) {
  if (order.size() != ops_.size()) {
    return Status::InvalidArgument("order size mismatch");
  }
  std::vector<bool> seen(ops_.size(), false);
  for (size_t idx : order) {
    if (idx >= ops_.size() || seen[idx]) {
      return Status::InvalidArgument("order is not a permutation");
    }
    seen[idx] = true;
  }
  order_ = order;
  // Positions changed meaning; per-position enumerator counts restart.
  std::fill(enum_pass_.begin(), enum_pass_.end(), 0);
  return Status::OK();
}

const OperatorSpec& PipelineExecutor::OperatorAt(size_t pos) const {
  NIPO_CHECK(pos < order_.size());
  return ops_[order_[pos]].spec;
}

double PipelineExecutor::ZonePrunableFractionAt(size_t pos) const {
  NIPO_CHECK(pos < order_.size());
  return ops_[order_[pos]].prunable_fraction;
}

namespace {

ColumnScanStats StatsOf(const ColumnView& view) {
  ColumnScanStats stats;
  stats.value_width = view.value_width();
  stats.scan_bytes_per_value = view.scan_bytes_per_value();
  stats.encoded = view.encoded();
  return stats;
}

}  // namespace

ColumnScanStats PipelineExecutor::ColumnStatsAt(size_t pos) const {
  NIPO_CHECK(pos < order_.size());
  return StatsOf(ops_[order_[pos]].column);
}

ColumnScanStats PipelineExecutor::PayloadStatsAt(size_t i) const {
  NIPO_CHECK(i < payloads_.size());
  return StatsOf(payloads_[i].column);
}

}  // namespace nipo
