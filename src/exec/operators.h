#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/compare.h"
#include "storage/table.h"

/// \file operators.h
/// Logical operator descriptions for the vectorized pipeline.
///
/// The paper's optimization unit is the *evaluation order* of a chain of
/// filtering operators over a scan: selection predicates (the predicate
/// evaluation order, PEO) and foreign-key probe/filter stages (the join
/// order of Sections 5.5-5.6). Both are described here and compiled by
/// PipelineExecutor.

namespace nipo {

// CompareOp / EvaluateCompare live in common/compare.h (shared with the
// storage layer's zone maps); re-exported here through the include.

/// \brief A selection predicate `column op value` on the fact table.
struct PredicateSpec {
  std::string column;
  CompareOp op = CompareOp::kLe;
  double value = 0.0;
  /// Additional per-evaluation instruction cost, modelling expensive
  /// predicates / UDFs (Section 5.5 pairs an "expensive selection" with a
  /// join). 0 for plain comparisons.
  double extra_instructions = 0.0;
};

/// \brief A foreign-key probe stage: reads the FK column of the fact
/// table, loads `filter_column` of the row it points to in `dimension`,
/// and keeps the tuple iff the dimension value passes `op value`.
///
/// The FK values are positional row ids into the dimension table (the
/// repository's generators emit dense surrogate keys), so the probe is a
/// direct array access whose locality is exactly the co-clusteredness the
/// paper's join-order experiments study.
struct FkProbeSpec {
  std::string fk_column;           ///< int32 column in the fact table
  const Table* dimension = nullptr;
  std::string filter_column;       ///< column probed in the dimension
  CompareOp op = CompareOp::kLe;
  double value = 0.0;
};

/// \brief One stage of the pipeline: either a predicate or an FK probe.
struct OperatorSpec {
  enum class Kind { kPredicate, kFkProbe };
  Kind kind = Kind::kPredicate;
  PredicateSpec predicate;
  FkProbeSpec probe;

  static OperatorSpec Predicate(PredicateSpec p) {
    OperatorSpec op;
    op.kind = Kind::kPredicate;
    op.predicate = std::move(p);
    return op;
  }
  static OperatorSpec FkProbe(FkProbeSpec p) {
    OperatorSpec op;
    op.kind = Kind::kFkProbe;
    op.probe = std::move(p);
    return op;
  }

  /// Short display name ("l_shipdate<=8400", "probe(orders.o_flag<5)").
  std::string ToString() const;
};

/// \brief Rows per execution block of the blocked operator-at-a-time
/// loop (PipelineExecutor). Chosen like Vectorwise's vector size: small
/// enough that a block's working set (a few KB per touched column) stays
/// cache-resident on the *simulated* machine, large enough to amortize
/// per-block bookkeeping on the host.
/// Simulated counters depend on this constant (it fixes the interleaving
/// of column touches), so it is a fixed compile-time property of the
/// execution layer, not a tuning knob.
inline constexpr size_t kSimBlockRows = 1024;

/// \brief Runs `fn(block_begin, n)` over [begin, end) in kSimBlockRows
/// blocks -- the outer skeleton of the executor and of every bench or
/// probe that replays its column touches.
template <typename Fn>
void ForEachSimBlock(size_t begin, size_t end, Fn&& fn) {
  for (size_t block = begin; block < end; block += kSimBlockRows) {
    fn(block, std::min(kSimBlockRows, end - block));
  }
}

/// \brief The blocked selection-vector scaffolding of PipelineExecutor:
/// dense-first semantics (the first operator of a block runs without a
/// materialized selection vector), a pass-flag buffer for branch
/// booking, and double-buffered survivor compaction.
///
/// Per block: BeginBlock(n); then per operator obtain pass()/next_sel(),
/// evaluate, and Commit(passed); MaterializeDense() converts a
/// still-dense block into an identity selection when downstream work
/// needs explicit row offsets. Buffers are reused across blocks
/// (single-threaded by contract, like the executors that embed it).
class SelectionScratch {
 public:
  void BeginBlock(size_t n) {
    dense_ = true;
    active_ = n;
  }

  size_t active() const { return active_; }
  bool dense() const { return dense_; }

  /// Block-relative offsets of still-active rows; nullptr while dense.
  const uint32_t* sel() const { return dense_ ? nullptr : sel_.data(); }

  /// Pass-flag buffer for the next evaluation (sized to active()).
  uint8_t* pass() {
    pass_.resize(active_);
    return pass_.data();
  }

  /// Survivor buffer for the next evaluation (sized to active()).
  uint32_t* next_sel() {
    next_sel_.resize(active_);
    return next_sel_.data();
  }

  /// Installs the `passed`-prefix of next_sel() as the new selection.
  void Commit(size_t passed) {
    next_sel_.resize(passed);
    sel_.swap(next_sel_);
    active_ = passed;
    dense_ = false;
  }

  /// If still dense, materializes the identity selection 0..active-1 so
  /// sel() becomes a real array (no-op otherwise).
  void MaterializeDense() {
    if (!dense_) return;
    sel_.resize(active_);
    for (size_t j = 0; j < active_; ++j) sel_[j] = static_cast<uint32_t>(j);
    dense_ = false;
  }

 private:
  std::vector<uint32_t> sel_;
  std::vector<uint32_t> next_sel_;
  std::vector<uint8_t> pass_;
  bool dense_ = true;
  size_t active_ = 0;
};

/// \brief How the executor exposes per-operator statistics.
enum class InstrumentationMode : int {
  /// Non-invasive: only the simulated PMU observes execution (the paper's
  /// approach).
  kPmu,
  /// Invasive: explicit counter variables incremented after every operator
  /// evaluation (the "enumerator-based" comparison point of Section 5.7).
  /// Costs extra instructions per evaluation.
  kEnumerator,
};

}  // namespace nipo
