#include "exec/operators.h"

#include "common/logging.h"
#include "exec/pipeline.h"
#include "exec/simd.h"

/// \file operators.cc
/// The shared blocked-selection primitive: one predicate evaluation over a
/// block with the full PMU booking sequence (load run, per-tuple
/// instructions, evaluation through the active SIMD kernel, branch
/// events), used by the pipeline executor and the hash aggregate's filter
/// chain so the two cannot drift.

namespace nipo {

// The header default is documentation; the executors pass LoopCostModel
// explicitly. Keep both in sync.
static_assert(PredicateEvalArgs{}.compare_instructions ==
              LoopCostModel::kCompareInstructions);

size_t EvalPredicateBlock(const PredicateEvalArgs& args,
                          SelectionScratch* scratch) {
  NIPO_CHECK(args.pmu != nullptr && scratch != nullptr &&
             args.column != nullptr);
  Pmu* pmu = args.pmu;
  const size_t active = scratch->active();
  if (active == 0) return 0;
  const uint32_t* sel = scratch->sel();
  // The view books the column loads: the same sequential/gather runs as
  // the historical raw path for plain columns, the encoded bytes
  // actually touched (plus decode instructions) for compressed ones.
  const ScanRun run =
      args.column->ScanBlock(pmu, args.block_begin, sel, active, args.decode);
  pmu->OnInstructions(static_cast<uint64_t>(args.compare_instructions) *
                      active);
  if (args.extra_instructions > 0) {
    pmu->OnInstructions(static_cast<uint64_t>(args.extra_instructions) *
                        active);
  }
  uint8_t* pass = scratch->pass();
  uint32_t* next_sel = scratch->next_sel();
  // The kernel reads element j at run.base_row + (run.gather ?
  // run.gather[j] : j); survivor ids stay `sel` so committed offsets
  // remain block-relative rows even when the run is a decoded buffer.
  const size_t passed =
      simd::CompareSelect(run.type, run.data, run.base_row, args.op,
                          args.value, run.gather, sel, active, pass, next_sel);
  if (args.post_eval_instructions > 0) {
    pmu->OnInstructions(static_cast<uint64_t>(args.post_eval_instructions) *
                        active);
  }
  pmu->OnPredicateBranches(args.branch_site, pass, active);
  scratch->Commit(passed);
  return passed;
}

}  // namespace nipo
