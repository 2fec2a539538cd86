#include "exec/simd.h"

#include <atomic>
#include <cstring>
#include <type_traits>

#if defined(NIPO_SIMD_AVX2)
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC's unmasked gather intrinsics expand through a masked form whose
// pass-through operand is intentionally undefined; -Wmaybe-uninitialized
// flags it from the intrinsic header (GCC bug 105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

/// \file simd.cc
/// AVX2 kernels and their bit-identical branch-free scalar fallbacks.
///
/// Every AVX2 function is compiled with a per-function `target("avx2")`
/// attribute, so the translation unit itself builds for the baseline ISA
/// and the vector paths are only ever entered after a runtime
/// __builtin_cpu_supports check. Comparisons run in the double domain on
/// all paths (integer lanes are converted with correctly rounded casts --
/// the AVX2 int64 path uses the exact full-range bit-twiddling sequence),
/// which is what makes the two implementations bit-identical rather than
/// merely close.

namespace nipo::simd {

namespace {

std::atomic<int> g_forced_level{-1};

// ---------------------------------------------------------------------------
// Scalar fallback: the executor's historical branch-free loop.
// ---------------------------------------------------------------------------

template <int kImm>
bool CompareImm(double a, double b);

// The imm8 values mirror AVX2 _CMP_* predicates so the scalar tail of the
// vector path and the full scalar fallback share one comparator set. The
// chosen predicates (ordered-quiet, and unordered-quiet for !=) have
// exactly the semantics of the C++ operators, including NaN behaviour.
enum : int {
  kCmpLt = 0x11,  // _CMP_LT_OQ
  kCmpLe = 0x12,  // _CMP_LE_OQ
  kCmpGt = 0x1E,  // _CMP_GT_OQ
  kCmpGe = 0x1D,  // _CMP_GE_OQ
  kCmpEq = 0x10,  // _CMP_EQ_OQ
  kCmpNe = 0x04,  // _CMP_NEQ_UQ
};

template <>
bool CompareImm<kCmpLt>(double a, double b) {
  return a < b;
}
template <>
bool CompareImm<kCmpLe>(double a, double b) {
  return a <= b;
}
template <>
bool CompareImm<kCmpGt>(double a, double b) {
  return a > b;
}
template <>
bool CompareImm<kCmpGe>(double a, double b) {
  return a >= b;
}
template <>
bool CompareImm<kCmpEq>(double a, double b) {
  return a == b;
}
template <>
bool CompareImm<kCmpNe>(double a, double b) {
  return a != b;
}

template <typename T, int kImm>
size_t ScalarCompareSelect(const T* base, const uint32_t* gather,
                           const uint32_t* ids, size_t n, double value,
                           uint8_t* pass, uint32_t* out_sel) {
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t index = gather ? gather[j] : static_cast<uint32_t>(j);
    const bool p = CompareImm<kImm>(static_cast<double>(base[index]), value);
    pass[j] = static_cast<uint8_t>(p);
    out_sel[count] = ids ? ids[j] : static_cast<uint32_t>(j);
    count += p;
  }
  return count;
}

#if defined(NIPO_SIMD_AVX2)

// ---------------------------------------------------------------------------
// AVX2 kernels (4 x 64-bit lanes).
// ---------------------------------------------------------------------------

/// Exact full-range signed int64 -> double conversion (correctly rounded,
/// bit-identical to a scalar static_cast): the low 32 bits are composed
/// into a 2^52-biased double, the (sign-flipped) high 32 bits into a
/// 2^84-biased one, and the bias is removed with one subtraction whose
/// rounding is the conversion's only rounding step.
__attribute__((target("avx2"))) inline __m256d Int64ToDouble(__m256i v) {
  const __m256i magic_lo =
      _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256i magic_hi =
      _mm256_set1_epi64x(0x4530000080000000LL);  // 2^84 + 2^63
  const __m256i magic_all =
      _mm256_set1_epi64x(0x4530000080100000LL);  // 2^84 + 2^63 + 2^52
  const __m256i v_lo = _mm256_blend_epi32(magic_lo, v, 0x55);
  __m256i v_hi = _mm256_srli_epi64(v, 32);
  v_hi = _mm256_xor_si256(v_hi, magic_hi);
  const __m256d hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi),
                                       _mm256_castsi256_pd(magic_all));
  return _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo));
}

template <typename T>
__attribute__((target("avx2"))) inline __m256d LoadLanes(
    const T* base, const uint32_t* gather, size_t j) {
  if constexpr (std::is_same_v<T, double>) {
    if (gather != nullptr) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(gather + j));
      return _mm256_i32gather_pd(base, idx, 8);
    }
    return _mm256_loadu_pd(base + j);
  } else if constexpr (std::is_same_v<T, int32_t>) {
    __m128i lanes;
    if (gather != nullptr) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(gather + j));
      lanes = _mm_i32gather_epi32(reinterpret_cast<const int*>(base), idx, 4);
    } else {
      lanes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + j));
    }
    return _mm256_cvtepi32_pd(lanes);
  } else {
    static_assert(std::is_same_v<T, int64_t>);
    __m256i lanes;
    if (gather != nullptr) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(gather + j));
      lanes = _mm256_i32gather_epi64(reinterpret_cast<const long long*>(base),
                                     idx, 8);
    } else {
      lanes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + j));
    }
    return Int64ToDouble(lanes);
  }
}

/// 16-byte pshufb patterns that compact the set lanes of a 4-bit
/// compare mask (as four 32-bit ids) to the front of the register;
/// unused output dwords are zeroed (0x80 bytes) and never consumed --
/// the append count advances by popcount(mask) only.
alignas(16) constexpr uint8_t kCompactShuffle[16][16] = {
    {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80, 0x80, 0x80},  // 0000
    {0, 1, 2, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80},  // 0001
    {4, 5, 6, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80},  // 0010
    {0, 1, 2, 3, 4, 5, 6, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80},  // 0011
    {8, 9, 10, 11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80},  // 0100
    {0, 1, 2, 3, 8, 9, 10, 11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80},  // 0101
    {4, 5, 6, 7, 8, 9, 10, 11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80},  // 0110
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x80, 0x80, 0x80, 0x80},  // 0111
    {12, 13, 14, 15, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80, 0x80},  // 1000
    {0, 1, 2, 3, 12, 13, 14, 15, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80},  // 1001
    {4, 5, 6, 7, 12, 13, 14, 15, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80},  // 1010
    {0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15, 0x80, 0x80, 0x80, 0x80},  // 1011
    {8, 9, 10, 11, 12, 13, 14, 15, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80},  // 1100
    {0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 0x80, 0x80, 0x80,
     0x80},  // 1101
    {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0x80, 0x80, 0x80,
     0x80},  // 1110
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},  // 1111
};

/// pass-flag bytes of a 4-bit mask, as one little-endian 32-bit store.
constexpr uint32_t kPassWords[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u,
};

template <typename T, int kImm>
__attribute__((target("avx2"))) size_t Avx2CompareSelect(
    const T* base, const uint32_t* gather, const uint32_t* ids, size_t n,
    double value, uint8_t* pass, uint32_t* out_sel) {
  const __m256d vval = _mm256_set1_pd(value);
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  size_t count = 0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d lanes = LoadLanes<T>(base, gather, j);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(lanes, vval, kImm));
    // Table-driven compaction, identical append semantics to the scalar
    // loop: pass flags stored for every lane, the set lanes' ids packed
    // to the append cursor in lane order. The 16-byte store reaches at
    // most out_sel[count + 3] <= out_sel[j + 3] < out_sel[n], inside the
    // caller's n-entry buffer; bytes past popcount(mask) are overwritten
    // by later appends or lie beyond the returned count.
    std::memcpy(pass + j, &kPassWords[mask], sizeof(uint32_t));
    const __m128i lane_ids =
        ids ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + j))
            : _mm_add_epi32(iota, _mm_set1_epi32(static_cast<int>(j)));
    const __m128i packed = _mm_shuffle_epi8(
        lane_ids,
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompactShuffle[mask])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_sel + count), packed);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; j < n; ++j) {
    const uint32_t index = gather ? gather[j] : static_cast<uint32_t>(j);
    const bool p = CompareImm<kImm>(static_cast<double>(base[index]), value);
    pass[j] = static_cast<uint8_t>(p);
    out_sel[count] = ids ? ids[j] : static_cast<uint32_t>(j);
    count += p;
  }
  return count;
}

#endif  // NIPO_SIMD_AVX2

template <typename T>
size_t CompareSelectTyped(SimdLevel level, const T* base,
                          const uint32_t* gather, const uint32_t* ids,
                          size_t n, CompareOp op, double value, uint8_t* pass,
                          uint32_t* out_sel) {
#if defined(NIPO_SIMD_AVX2)
  if (level == SimdLevel::kAvx2) {
    switch (op) {
      case CompareOp::kLt:
        return Avx2CompareSelect<T, kCmpLt>(base, gather, ids, n, value, pass,
                                            out_sel);
      case CompareOp::kLe:
        return Avx2CompareSelect<T, kCmpLe>(base, gather, ids, n, value, pass,
                                            out_sel);
      case CompareOp::kGt:
        return Avx2CompareSelect<T, kCmpGt>(base, gather, ids, n, value, pass,
                                            out_sel);
      case CompareOp::kGe:
        return Avx2CompareSelect<T, kCmpGe>(base, gather, ids, n, value, pass,
                                            out_sel);
      case CompareOp::kEq:
        return Avx2CompareSelect<T, kCmpEq>(base, gather, ids, n, value, pass,
                                            out_sel);
      case CompareOp::kNe:
        return Avx2CompareSelect<T, kCmpNe>(base, gather, ids, n, value, pass,
                                            out_sel);
    }
    return 0;
  }
#else
  (void)level;
#endif
  switch (op) {
    case CompareOp::kLt:
      return ScalarCompareSelect<T, kCmpLt>(base, gather, ids, n, value, pass,
                                            out_sel);
    case CompareOp::kLe:
      return ScalarCompareSelect<T, kCmpLe>(base, gather, ids, n, value, pass,
                                            out_sel);
    case CompareOp::kGt:
      return ScalarCompareSelect<T, kCmpGt>(base, gather, ids, n, value, pass,
                                            out_sel);
    case CompareOp::kGe:
      return ScalarCompareSelect<T, kCmpGe>(base, gather, ids, n, value, pass,
                                            out_sel);
    case CompareOp::kEq:
      return ScalarCompareSelect<T, kCmpEq>(base, gather, ids, n, value, pass,
                                            out_sel);
    case CompareOp::kNe:
      return ScalarCompareSelect<T, kCmpNe>(base, gather, ids, n, value, pass,
                                            out_sel);
  }
  return 0;
}

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool Avx2Available() {
#if defined(NIPO_SIMD_AVX2)
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

SimdLevel ActiveLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const SimdLevel level = static_cast<SimdLevel>(forced);
    if (level == SimdLevel::kAvx2 && !Avx2Available()) {
      return SimdLevel::kScalar;
    }
    return level;
  }
  return Avx2Available() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

void ForceLevel(SimdLevel level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetForcedLevel() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

size_t CompareSelect(SimdLevel level, DataType type, const uint8_t* data,
                     size_t base_row, CompareOp op, double value,
                     const uint32_t* gather, const uint32_t* ids, size_t n,
                     uint8_t* pass, uint32_t* out_sel) {
  if (level == SimdLevel::kAvx2 && !Avx2Available()) {
    level = SimdLevel::kScalar;
  }
  switch (type) {
    case DataType::kInt32:
      return CompareSelectTyped<int32_t>(
          level, reinterpret_cast<const int32_t*>(data) + base_row, gather,
          ids, n, op, value, pass, out_sel);
    case DataType::kInt64:
      return CompareSelectTyped<int64_t>(
          level, reinterpret_cast<const int64_t*>(data) + base_row, gather,
          ids, n, op, value, pass, out_sel);
    case DataType::kDouble:
      return CompareSelectTyped<double>(
          level, reinterpret_cast<const double*>(data) + base_row, gather,
          ids, n, op, value, pass, out_sel);
  }
  return 0;
}

}  // namespace nipo::simd
