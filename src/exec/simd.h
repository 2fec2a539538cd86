#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "exec/operators.h"
#include "storage/column.h"

/// \file simd.h
/// Portable SIMD kernel layer for the executor hot loops.
///
/// Two implementations stand behind every kernel: an AVX2 path (compiled
/// per-function with the `avx2` target attribute, so the rest of the
/// binary stays baseline-ISA) and a branch-free scalar fallback. The AVX2
/// path is selected at runtime iff the host CPU reports AVX2 *and* the
/// build enabled it (CMake option NIPO_SIMD, on by default); tests and
/// benches can pin either path with ForceLevel().
///
/// The contract that makes the executor's differential gates work: for
/// identical inputs, both paths produce bit-identical outputs -- the same
/// pass flags and the same compacted selection vector. The comparison
/// kernels evaluate `EvaluateCompare(double(element), op, constant)`
/// exactly (int32/int64 elements are converted with correctly rounded
/// casts; the AVX2 int64 conversion uses an exact full-range sequence).
/// Simulated PMU booking never happens here -- executors report the
/// *logical* event stream themselves, so simulated counters are
/// kernel-independent by construction (docs/COUNTERS.md
/// "Kernel-independent booking").

namespace nipo::simd {

/// \brief Kernel implementation level.
enum class SimdLevel : int {
  kScalar = 0,  ///< branch-free scalar fallback (always available)
  kAvx2 = 1,    ///< 4-lane AVX2 kernels
};

std::string_view SimdLevelName(SimdLevel level);

/// True iff AVX2 kernels were compiled in and the host CPU supports them.
bool Avx2Available();

/// The level CompareSelect runs at: a ForceLevel() override if one
/// is active, else the best available level. Forcing kAvx2 on a host
/// without AVX2 is ignored (detection wins; kernels would fault).
SimdLevel ActiveLevel();

/// Pins the active level (tests / differential benches). Thread-safe;
/// affects every thread.
void ForceLevel(SimdLevel level);
void ResetForcedLevel();

/// \brief Branch-free compare-to-mask + selection-vector compaction over
/// `n` elements of a typed column.
///
/// Element j lives at row `base_row + (gather ? gather[j] : j)` of the
/// column; `pass[j]` receives the outcome of
/// `EvaluateCompare(double(element), op, value)` as exactly 0 or 1 (the
/// flag contract of Pmu::OnPredicateBranches, which packs 8 flags into
/// one byte) and the id
/// `ids ? ids[j] : j` is appended to `out_sel` for passing elements
/// (dense-first semantics, identical to the executor's historical scalar
/// loop). Returns the number of passing elements. `out_sel` must hold `n`
/// entries; gather indices must be < 2^31 (AVX2 gathers sign-extend their
/// 32-bit indices).
size_t CompareSelect(SimdLevel level, DataType type, const uint8_t* data,
                     size_t base_row, CompareOp op, double value,
                     const uint32_t* gather, const uint32_t* ids, size_t n,
                     uint8_t* pass, uint32_t* out_sel);

/// ActiveLevel() convenience overload.
inline size_t CompareSelect(DataType type, const uint8_t* data,
                            size_t base_row, CompareOp op, double value,
                            const uint32_t* gather, const uint32_t* ids,
                            size_t n, uint8_t* pass, uint32_t* out_sel) {
  return CompareSelect(ActiveLevel(), type, data, base_row, op, value, gather,
                       ids, n, pass, out_sel);
}

}  // namespace nipo::simd
