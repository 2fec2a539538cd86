#include "exec/pipeline.h"

#include <algorithm>
#include <limits>

#include "exec/simd.h"

/// \file pipeline.cc
/// The instrumented blocked operator-at-a-time scan loop: operator-chain
/// evaluation in a configurable order, every load/compare/branch reported
/// to the Pmu as per-block runs (coalesced by its batched reporting
/// layer). Predicate blocks run through the shared EvalPredicateBlock
/// primitive (exec/operators.cc), whose host-side evaluation is the
/// runtime-selected SIMD kernel of exec/simd.h; FK probes gather their
/// dimension values through the same kernel layer.

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
  exec->specs_ = std::move(ops);
  exec->num_rows_ = table.num_rows();
  exec->pmu_ = pmu;
  exec->mode_ = mode;

  for (size_t i = 0; i < exec->specs_.size(); ++i) {
    const OperatorSpec& spec = exec->specs_[i];
    CompiledOp c;
    c.kind = spec.kind;
    c.original_index = i;
    if (spec.kind == OperatorSpec::Kind::kPredicate) {
      NIPO_RETURN_NOT_OK(BindColumn(table, spec.predicate.column, &c.column));
      c.op = spec.predicate.op;
      c.value = spec.predicate.value;
      c.extra_instructions = spec.predicate.extra_instructions;
      c.prunable_fraction = c.column.ZonePrunableFraction(c.op, c.value);
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
      c.op = spec.probe.op;
      c.value = spec.probe.value;
      c.dim_rows = c.dim_column.size();
      // 2^31 (not 2^32): AVX2 gathers sign-extend their 32-bit indices,
      // so probe keys must stay in the non-negative int32 range.
      if (c.dim_rows > (uint64_t{1} << 31)) {
        return Status::InvalidArgument(
            "dimension table exceeds the 2^31-row probe-key range");
      }
    }
    exec->all_ops_.push_back(c);
  }

  for (const std::string& name : payload_columns) {
    CompiledPayload p;
    NIPO_RETURN_NOT_OK(BindColumn(table, name, &p.column));
    exec->payloads_.push_back(p);
  }

  exec->compiled_ = exec->all_ops_;
  exec->order_.resize(exec->all_ops_.size());
  for (size_t i = 0; i < exec->order_.size(); ++i) exec->order_[i] = i;
  exec->enum_pass_.assign(exec->all_ops_.size(), 0);
  // One branch site per evaluation position plus the loop back-edge.
  exec->loop_site_ = exec->all_ops_.size();
  pmu->EnsureBranchSites(exec->all_ops_.size() + 1);
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
  for (const CompiledOp& op : compiled_) {
    if (op.kind != OperatorSpec::Kind::kPredicate) continue;
    if (!op.column.has_zone_maps()) continue;
    const size_t checks = op.column.ZoneChecksForRange(block_begin, n);
    pmu_->OnInstructions(
        static_cast<uint64_t>(StorageCostModel::kZoneCheckInstructions) *
        checks);
    if (op.column.ZoneRefutesRange(block_begin, n, op.op, op.value)) {
      return true;
    }
  }
  return false;
}

void PipelineExecutor::ExecuteBlock(size_t block_begin, size_t n,
                                    VectorResult* result) {
  const size_t num_ops = compiled_.size();
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
  for (size_t pos = 0; pos < num_ops && scratch_.active() > 0; ++pos) {
    const CompiledOp& op = compiled_[pos];
    if (op.kind == OperatorSpec::Kind::kPredicate) {
      PredicateEvalArgs args;
      args.pmu = pmu_;
      args.branch_site = pos;
      args.column = &op.column;
      args.decode = &decode_fact_;
      args.block_begin = block_begin;
      args.op = op.op;
      args.value = op.value;
      args.extra_instructions = op.extra_instructions;
      args.compare_instructions = LoopCostModel::kCompareInstructions;
      // Invasive instrumentation: increment an explicit pass counter
      // after each evaluation (Section 5.7's enumerator-based approach).
      args.post_eval_instructions =
          enumerator ? LoopCostModel::kEnumeratorInstructions : 0.0;
      const size_t passed = EvalPredicateBlock(args, &scratch_);
      if (enumerator) enum_pass_[pos] += passed;
    } else {
      // FK probe: the key gather feeds a dimension-side gather evaluated
      // through the same SIMD kernel. FK columns are validated int32 at
      // Compile time; probes are always branching (the qualify branch is
      // inherent to the probe loop).
      const size_t active = scratch_.active();
      const uint32_t* sel = scratch_.sel();
      const ScanRun fk_run =
          op.column.ScanBlock(pmu_, block_begin, sel, active, &decode_fact_);
      pmu_->OnInstructions(
          static_cast<uint64_t>(LoopCostModel::kProbeAddressInstructions) *
          active);
      keys_.resize(active);
      for (size_t j = 0; j < active; ++j) {
        const int64_t fk_value = ScanRunValueAsInt64(fk_run, j);
        const uint64_t key = static_cast<uint64_t>(fk_value);
        if (key >= op.dim_rows) {
          // Data-dependent and only discoverable here: latch instead of
          // aborting, before anything dereferences the dimension column
          // at the bad key. The drivers turn the latch into a failed
          // query; the block's partial work stays accounted.
          const uint32_t offset = sel ? sel[j] : static_cast<uint32_t>(j);
          error_ = Status::OutOfRange(
              "FK value " + std::to_string(fk_value) + " at row " +
              std::to_string(block_begin + offset) + " outside dimension (" +
              std::to_string(op.dim_rows) + " rows)");
          return;
        }
        keys_[j] = static_cast<uint32_t>(key);
      }
      const ScanRun dim_run =
          op.dim_column.GatherRows(pmu_, keys_.data(), active, &decode_dim_);
      pmu_->OnInstructions(
          static_cast<uint64_t>(LoopCostModel::kCompareInstructions) *
          active);
      uint8_t* pass = scratch_.pass();
      uint32_t* next_sel = scratch_.next_sel();
      const size_t passed = simd::CompareSelect(
          dim_run.type, dim_run.data, dim_run.base_row, op.op, op.value,
          dim_run.gather, sel, active, pass, next_sel);
      if (enumerator) {
        pmu_->OnInstructions(
            static_cast<uint64_t>(LoopCostModel::kEnumeratorInstructions) *
            active);
        enum_pass_[pos] += passed;
      }
      // Probe qualify branch per evaluated row, NOT taken when the tuple
      // qualifies, in row order as a tuple-at-a-time loop would emit it.
      pmu_->OnPredicateBranches(pos, pass, active);
      scratch_.Commit(passed);
    }
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
  if (order.size() != all_ops_.size()) {
    return Status::InvalidArgument("order size mismatch");
  }
  std::vector<bool> seen(all_ops_.size(), false);
  for (size_t idx : order) {
    if (idx >= all_ops_.size() || seen[idx]) {
      return Status::InvalidArgument("order is not a permutation");
    }
    seen[idx] = true;
  }
  std::vector<CompiledOp> next;
  next.reserve(all_ops_.size());
  for (size_t idx : order) next.push_back(all_ops_[idx]);
  compiled_ = std::move(next);
  order_ = order;
  // Positions changed meaning; per-position enumerator counts restart.
  std::fill(enum_pass_.begin(), enum_pass_.end(), 0);
  return Status::OK();
}

const OperatorSpec& PipelineExecutor::OperatorAt(size_t pos) const {
  NIPO_CHECK(pos < compiled_.size());
  return specs_[compiled_[pos].original_index];
}

double PipelineExecutor::ZonePrunableFractionAt(size_t pos) const {
  NIPO_CHECK(pos < compiled_.size());
  return compiled_[pos].prunable_fraction;
}

namespace {

ColumnScanStats StatsOf(const ColumnView& view) {
  ColumnScanStats stats;
  stats.value_width = view.value_width();
  stats.scan_bytes_per_value = view.scan_bytes_per_value();
  stats.decode_instructions = view.decode_instructions_per_value();
  stats.encoded = view.encoded();
  return stats;
}

}  // namespace

ColumnScanStats PipelineExecutor::ColumnStatsAt(size_t pos) const {
  NIPO_CHECK(pos < compiled_.size());
  return StatsOf(compiled_[pos].column);
}

ColumnScanStats PipelineExecutor::PayloadStatsAt(size_t i) const {
  NIPO_CHECK(i < payloads_.size());
  return StatsOf(payloads_[i].column);
}

}  // namespace nipo
