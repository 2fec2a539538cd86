/// \file simd_kernels_test.cc
/// Differential tests of the portable SIMD kernel layer (DESIGN.md
/// Section 8): the AVX2 and branch-free scalar paths of CompareSelect
/// must be bit-identical on every input — all comparators, all element
/// types, dense and gathered access, special floating-point values, and
/// full-range int64 (the exact-conversion sequence). Also covers the
/// ForceLevel override.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/prng.h"
#include "exec/simd.h"

namespace nipo {
namespace {

constexpr CompareOp kAllOps[] = {CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe,
                                 CompareOp::kEq, CompareOp::kNe};

/// Restores runtime level selection when a test body returns.
struct ForcedLevelGuard {
  ~ForcedLevelGuard() { simd::ResetForcedLevel(); }
};

/// Runs CompareSelect at both levels on identical inputs and checks the
/// outputs are bit-identical: the pass array, the count, and the
/// selection-vector prefix up to the count (entries past it are
/// unspecified — the AVX2 compaction writes different garbage there than
/// the scalar loop).
template <typename T>
void ExpectLevelsIdentical(const std::vector<T>& data, size_t base_row,
                           CompareOp op, double value,
                           const std::vector<uint32_t>* gather,
                           const std::vector<uint32_t>* ids, size_t n) {
  DataType type = DataType::kDouble;
  if constexpr (std::is_same_v<T, int32_t>) type = DataType::kInt32;
  if constexpr (std::is_same_v<T, int64_t>) type = DataType::kInt64;
  std::vector<uint8_t> pass_a(n, 0xcc), pass_b(n, 0xdd);
  std::vector<uint32_t> sel_a(n, 1), sel_b(n, 2);
  const size_t count_a = simd::CompareSelect(
      simd::SimdLevel::kScalar, type,
      reinterpret_cast<const uint8_t*>(data.data()), base_row, op, value,
      gather ? gather->data() : nullptr, ids ? ids->data() : nullptr, n,
      pass_a.data(), sel_a.data());
  const size_t count_b = simd::CompareSelect(
      simd::SimdLevel::kAvx2, type,
      reinterpret_cast<const uint8_t*>(data.data()), base_row, op, value,
      gather ? gather->data() : nullptr, ids ? ids->data() : nullptr, n,
      pass_b.data(), sel_b.data());
  ASSERT_EQ(count_a, count_b)
      << "op=" << static_cast<int>(op) << " value=" << value << " n=" << n;
  EXPECT_EQ(pass_a, pass_b);
  EXPECT_TRUE(std::equal(sel_a.begin(),
                         sel_a.begin() + static_cast<ptrdiff_t>(count_a),
                         sel_b.begin()))
      << "selection-vector prefix diverged, op=" << static_cast<int>(op);
  // The count is consistent with the pass flags either way.
  size_t popcount = 0;
  for (size_t j = 0; j < n; ++j) popcount += pass_a[j];
  EXPECT_EQ(popcount, count_a);
}

TEST(SimdLevelTest, ForceLevelOverridesAndResets) {
  ForcedLevelGuard guard;
  simd::ForceLevel(simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::SimdLevel::kScalar);
  simd::ForceLevel(simd::SimdLevel::kAvx2);
  // Forcing AVX2 on a host without it is ignored (the kernels would
  // fault); detection wins.
  EXPECT_EQ(simd::ActiveLevel(), simd::Avx2Available()
                                     ? simd::SimdLevel::kAvx2
                                     : simd::SimdLevel::kScalar);
  simd::ResetForcedLevel();
  EXPECT_EQ(simd::ActiveLevel(), simd::Avx2Available()
                                     ? simd::SimdLevel::kAvx2
                                     : simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::SimdLevelName(simd::SimdLevel::kScalar), "scalar");
  EXPECT_EQ(simd::SimdLevelName(simd::SimdLevel::kAvx2), "avx2");
}

TEST(SimdCompareSelectTest, AllOpsAllTypesDense) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "host lacks AVX2";
  Prng prng(7);
  // Odd n exercises the vector path's scalar tail.
  const size_t n = 1003;
  std::vector<double> doubles(n);
  std::vector<int32_t> int32s(n);
  std::vector<int64_t> int64s(n);
  for (size_t i = 0; i < n; ++i) {
    // Narrow domain: every comparator sees plenty of exact ties.
    doubles[i] = static_cast<double>(prng.NextBounded(32)) / 2.0;
    int32s[i] = static_cast<int32_t>(prng.NextInRange(-16, 16));
    int64s[i] = prng.NextInRange(-16, 16);
  }
  for (const CompareOp op : kAllOps) {
    for (const double value : {-3.0, 0.0, 4.5, 7.0, 40.0}) {
      ExpectLevelsIdentical(doubles, 0, op, value, nullptr, nullptr, n);
      ExpectLevelsIdentical(int32s, 0, op, value, nullptr, nullptr, n);
      ExpectLevelsIdentical(int64s, 0, op, value, nullptr, nullptr, n);
    }
  }
}

TEST(SimdCompareSelectTest, GatherIdsAndBaseRow) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "host lacks AVX2";
  Prng prng(11);
  const size_t rows = 4096, n = 517;
  std::vector<double> doubles(rows);
  std::vector<int32_t> int32s(rows);
  for (size_t i = 0; i < rows; ++i) {
    doubles[i] = static_cast<double>(prng.NextBounded(100));
    int32s[i] = static_cast<int32_t>(prng.NextBounded(100));
  }
  std::vector<uint32_t> gather(n), ids(n);
  for (size_t j = 0; j < n; ++j) {
    gather[j] = static_cast<uint32_t>(prng.NextBounded(rows));
    ids[j] = static_cast<uint32_t>(prng.Next());
  }
  for (const CompareOp op : kAllOps) {
    ExpectLevelsIdentical(doubles, 0, op, 50.0, &gather, &ids, n);
    ExpectLevelsIdentical(int32s, 0, op, 50.0, &gather, &ids, n);
    // Dense with ids, gathered without ids, and a non-zero base row.
    ExpectLevelsIdentical(doubles, 0, op, 50.0, nullptr, &ids, n);
    ExpectLevelsIdentical(int32s, 0, op, 50.0, &gather, nullptr, n);
    ExpectLevelsIdentical(doubles, 1024, op, 50.0, nullptr, nullptr, n);
  }
}

TEST(SimdCompareSelectTest, SpecialDoublesIncludingNaN) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "host lacks AVX2";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> data = {nan,  -nan, inf,    -inf, 0.0,
                              -0.0, 1.0,  -1.0,   5e-324,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::max(),
                              std::numeric_limits<double>::lowest(), 2.5};
  for (const CompareOp op : kAllOps) {
    for (const double value : {0.0, -0.0, 1.0, inf, -inf, nan}) {
      ExpectLevelsIdentical(data, 0, op, value, nullptr, nullptr,
                            data.size());
    }
  }
}

TEST(SimdCompareSelectTest, Int64FullRangeExactConversion) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "host lacks AVX2";
  // Values around the 2^53 exactness boundary and the int64 extremes:
  // the AVX2 path must round int64 -> double exactly like the scalar
  // static_cast (round-to-nearest-even above 2^53).
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> data;
  for (const int64_t base :
       {int64_t{0}, int64_t{1} << 52, int64_t{1} << 53, int64_t{1} << 62,
        max - 1024, min + 1024}) {
    for (int64_t d = -3; d <= 3; ++d) data.push_back(base + d);
  }
  data.push_back(max);
  data.push_back(min);
  Prng prng(13);
  for (int i = 0; i < 200; ++i) {
    data.push_back(static_cast<int64_t>(prng.Next()));
  }
  for (const CompareOp op : kAllOps) {
    for (const double value :
         {0.0, 9007199254740993.0, 9.2233720368547758e18,
          -9.2233720368547758e18, 4.0e18}) {
      ExpectLevelsIdentical(data, 0, op, value, nullptr, nullptr,
                            data.size());
    }
  }
}

}  // namespace
}  // namespace nipo
