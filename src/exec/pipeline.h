#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "hw/pmu.h"
#include "storage/table.h"

/// \file pipeline.h
/// The vectorized, PMU-instrumented pipeline executor.
///
/// This is the "machine code" half of the paper's Section 2.1: operator
/// chains evaluated in a configurable order over the fact table, with one
/// conditional branch per operator evaluation (not taken = tuple
/// qualifies) plus the loop back-edge. Every dynamic event -- load,
/// compare, branch -- is reported to the simulated Pmu, which is how the
/// non-invasive counters of the paper arise here.
///
/// Execution is blocked operator-at-a-time (Vectorwise-style primitives):
/// each kSimBlockRows block runs one operator over all still-active rows
/// before the next, so every column touch is a stride-1 run or a gather
/// that the Pmu's batched reporting layer coalesces per cache line
/// (DESIGN.md "Batched simulation"). Per branch site the outcome sequence
/// is in row order, exactly as a tuple-at-a-time loop would produce it,
/// so the predictor-derived counters are loop-shape independent.
///
/// Reorder() switches to a different evaluation order between vectors,
/// playing the role of Hyper-style JIT recompilation / Vectorwise-style
/// primitive rechaining in Section 4.4.

namespace nipo {

/// \brief Result of executing one vector (or any row range).
struct VectorResult {
  uint64_t input_tuples = 0;
  uint64_t qualifying_tuples = 0;
  /// Sum over qualifying tuples of the product of the payload columns
  /// (e.g. Q6's sum(l_extendedprice * l_discount)).
  double aggregate = 0.0;
  /// Input tuples proven dead by a zone map before any per-tuple work
  /// (whole execution blocks skipped; subset of input_tuples). Always 0
  /// over plain columns.
  uint64_t zone_skipped = 0;
};

/// \brief Per-column storage costs as the executor sees them, consumed
/// by the progressive optimizer's scan shapes (cost/counter_model).
struct ColumnScanStats {
  uint32_t value_width = 0;            ///< native (decoded) width
  double scan_bytes_per_value = 0.0;   ///< encoded bytes a scan touches
  double decode_instructions = 0.0;    ///< per decoded value
  bool encoded = false;
};

/// \brief Compiled pipeline over one fact table.
class PipelineExecutor {
 public:
  /// Compiles `ops` (in initial evaluation order) against `table`.
  /// `payload_columns` are read only for fully qualifying tuples and
  /// multiplied into the aggregate. Validation errors (unknown columns,
  /// non-int32 FK columns, null dimension tables, FK values out of range
  /// are checked at run time) surface as Status.
  static Result<std::unique_ptr<PipelineExecutor>> Compile(
      const Table& table, std::vector<OperatorSpec> ops,
      std::vector<std::string> payload_columns, Pmu* pmu,
      InstrumentationMode mode = InstrumentationMode::kPmu);

  /// Executes rows [begin, end). If a runtime data error latches (see
  /// error()) the range stops early and returns the rows processed so
  /// far; further calls are no-ops until the latch is inspected.
  VectorResult ExecuteRange(size_t begin, size_t end);

  /// Runtime data-error latch. Data that can only be validated while
  /// executing — an FK value outside its dimension table, for instance —
  /// latches a Status here instead of aborting the process; execution
  /// stops at the current block and the drivers surface the Status as a
  /// failed query (QueryOutcome::kFailed) with partial progress kept.
  const Status& error() const { return error_; }

  /// Executes the whole table.
  VectorResult ExecuteAll() { return ExecuteRange(0, num_rows_); }

  /// Switches the evaluation order. `order` is a permutation of
  /// [0, num_operators) expressed in *original* operator indices.
  Status Reorder(const std::vector<size_t>& order);

  /// Current evaluation order as original operator indices.
  const std::vector<size_t>& current_order() const { return order_; }

  /// Sets the simulated evaluation form per operator, indexed by
  /// *original* operator index (forms survive Reorder, like the specs).
  /// FK probes only support kBranching (their qualify branch is inherent
  /// to the probe loop); InvalidArgument otherwise. The progressive
  /// optimizer under CostPricing::kSimdAware drives this.
  Status SetForms(const std::vector<PredicateForm>& forms);

  /// Current forms, indexed by original operator index.
  std::vector<PredicateForm> forms() const;

  /// The form of the operator currently evaluated at position `pos`.
  PredicateForm FormAt(size_t pos) const;

  size_t num_operators() const { return compiled_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// The operator currently evaluated at position `pos`.
  const OperatorSpec& OperatorAt(size_t pos) const;

  /// Enumerator mode only: tuples that passed the operator currently at
  /// each position, cumulatively since ResetEnumeratorCounts().
  const std::vector<uint64_t>& enumerator_pass_counts() const {
    return enum_pass_;
  }
  void ResetEnumeratorCounts();

  Pmu* pmu() const { return pmu_; }

  /// Fraction of the table's rows that the zone maps of the operator
  /// currently at `pos` prove dead against its predicate (0 for plain
  /// columns and FK probes) -- the optimizer's skip-potential signal.
  double ZonePrunableFractionAt(size_t pos) const;

  /// Storage scan stats of the fact-side column of the operator
  /// currently at `pos`.
  ColumnScanStats ColumnStatsAt(size_t pos) const;

  /// Storage scan stats of payload column `i`.
  ColumnScanStats PayloadStatsAt(size_t i) const;
  size_t num_payloads() const { return payloads_.size(); }

 private:
  struct CompiledOp {
    OperatorSpec::Kind kind;
    // Fact-side column, scanned through the storage view API.
    ColumnView column;
    CompareOp op = CompareOp::kLe;
    double value = 0.0;
    double extra_instructions = 0.0;
    PredicateForm form = PredicateForm::kBranching;
    // Predicates: fraction of rows in zone-refuted blocks (0 without
    // zone maps), computed once at Compile.
    double prunable_fraction = 0.0;
    // FK probe: dimension-side column.
    ColumnView dim_column;
    uint64_t dim_rows = 0;
    // Original index in the spec list (identifies the operator across
    // reorders).
    size_t original_index = 0;
  };
  struct CompiledPayload {
    ColumnView column;
  };

  PipelineExecutor() = default;

  /// Runs one block [block_begin, block_begin + n) and accumulates into
  /// `result`.
  void ExecuteBlock(size_t block_begin, size_t n, VectorResult* result);

  /// Zone-map prologue of a block: true if some predicate's zone maps
  /// refute it entirely (the caller then skips all per-tuple work).
  bool ZoneSkipBlock(size_t block_begin, size_t n);

  std::vector<OperatorSpec> specs_;       // original order
  std::vector<CompiledOp> all_ops_;       // original order
  std::vector<CompiledOp> compiled_;      // current evaluation order
  std::vector<size_t> order_;             // current order (original indices)
  std::vector<CompiledPayload> payloads_;
  std::vector<uint64_t> enum_pass_;
  Status error_;  ///< runtime data-error latch (see error())
  size_t num_rows_ = 0;
  Pmu* pmu_ = nullptr;
  InstrumentationMode mode_ = InstrumentationMode::kPmu;
  // Branch sites: position i -> site i, loop back-edge -> site
  // num_operators().
  size_t loop_site_ = 0;
  // Per-block scratch (selection-vector scaffolding / probe keys /
  // payload products), reused across blocks. An executor is
  // single-threaded by contract; the parallel driver builds one executor
  // per worker.
  SelectionScratch scratch_;
  std::vector<uint32_t> keys_;
  std::vector<double> prod_;
  // Decode buffers for encoded columns: fact-side scans and payloads use
  // decode_fact_, the probe's dimension gather uses decode_dim_ (both
  // live at once inside a probe).
  DecodeScratch decode_fact_;
  DecodeScratch decode_dim_;
};

/// \brief Instruction-cost constants of the generated loop; shared by the
/// executor and by documentation/tests that reason about the cycle model.
struct LoopCostModel {
  static constexpr double kLoopInstructions = 1.0;   ///< i++ / bounds calc
  static constexpr double kCompareInstructions = 1.0;
  /// Per-tuple instructions of the branch-free (compare-to-mask +
  /// selection compaction) predicate form: load-compare plus mask
  /// extraction, conditional-move append and count update replace the
  /// single compare+branch of the branching form (DESIGN.md Section 8).
  static constexpr double kBranchFreeInstructions = 4.0;
  static constexpr double kProbeAddressInstructions = 1.0;
  static constexpr double kAggregateInstructions = 2.0;  ///< mul + add
  /// Enumerator-based instrumentation: increment + store of the explicit
  /// counter after every operator evaluation (Section 5.7).
  static constexpr double kEnumeratorInstructions = 3.0;
};

}  // namespace nipo
