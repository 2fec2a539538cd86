/// \file simd_kernels_test.cc
/// Differential tests of the portable SIMD kernel layer (DESIGN.md
/// Section 8): the AVX2 and branch-free scalar paths of CompareSelect
/// and HashKeys must be bit-identical on every input — all comparators,
/// all element types, dense and gathered access, special floating-point
/// values, and full-range int64 (the exact-conversion sequence). Also
/// covers the ForceLevel override and the hash table's batched probe
/// paths: BatchLookup must book event-for-event like per-key Lookup, at
/// either kernel level (simulated counters are kernel-independent by
/// construction — docs/COUNTERS.md "Kernel-independent booking").

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/prng.h"
#include "exec/hash_table.h"
#include "exec/simd.h"
#include "hw/pmu.h"

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

TEST(SimdHashKeysTest, LevelsBitIdenticalAndMatchSplitMix64) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "host lacks AVX2";
  Prng prng(17);
  std::vector<int64_t> keys = {0, 1, -1, std::numeric_limits<int64_t>::max(),
                               std::numeric_limits<int64_t>::min()};
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(static_cast<int64_t>(prng.Next()));
  }
  std::vector<uint64_t> scalar(keys.size()), avx2(keys.size());
  simd::HashKeys(simd::SimdLevel::kScalar, keys.data(), keys.size(),
                 scalar.data());
  simd::HashKeys(simd::SimdLevel::kAvx2, keys.data(), keys.size(),
                 avx2.data());
  EXPECT_EQ(scalar, avx2);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(scalar[i],
              simd::SplitMix64(static_cast<uint64_t>(keys[i])))
        << "key=" << keys[i];
  }
}

/// Builds a table with `build` random keys and a probe stream mixing
/// hits and misses.
struct ProbeFixture {
  explicit ProbeFixture(Pmu* pmu) : table(4'096, pmu) {
    Prng prng(23);
    for (size_t i = 0; i < 4'096; ++i) {
      const Status st =
          table.Insert(static_cast<int64_t>(prng.NextBounded(8'192)),
                       static_cast<int64_t>(i));
      NIPO_CHECK(st.ok() || st.code() == StatusCode::kAlreadyExists);
    }
    probe_keys.resize(10'000);
    for (int64_t& k : probe_keys) {
      k = static_cast<int64_t>(prng.NextBounded(16'384));
    }
  }
  InstrumentedHashTable table;
  std::vector<int64_t> probe_keys;
};

TEST(SimdBatchLookupTest, BooksIdenticallyToPerKeyLookups) {
  // One table, one machine: a warm pass drives the caches to their
  // steady state for this probe sequence, then each probe mode runs from
  // that same state in its own counter window — the booked streams (and
  // so the windows) must be bit-equal, per docs/COUNTERS.md.
  Pmu pmu(HwConfig::ScaledXeon(32));
  ProbeFixture f(&pmu);
  const size_t n = f.probe_keys.size();
  std::vector<int64_t> vals_a(n, -1), vals_b(n, -1);
  std::vector<uint8_t> hits_a(n, 0xee), hits_b(n, 0xff);

  auto per_key = [&] {
    for (size_t i = 0; i < n; ++i) {
      hits_a[i] = static_cast<uint8_t>(
          f.table.Lookup(f.probe_keys[i], &vals_a[i]));
      if (!hits_a[i]) vals_a[i] = -1;
    }
  };
  per_key();  // warm pass: both measured windows start from this state

  pmu.ResetCounters();
  const HashTableStats stats_before_a = f.table.stats();
  per_key();
  const PmuCounters counters_a = pmu.Read();
  const HashTableStats stats_a = f.table.stats() - stats_before_a;

  pmu.ResetCounters();
  const HashTableStats stats_before_b = f.table.stats();
  f.table.BatchLookup(f.probe_keys.data(), n, vals_b.data(), hits_b.data());
  const PmuCounters counters_b = pmu.Read();
  const HashTableStats stats_b = f.table.stats() - stats_before_b;

  EXPECT_EQ(hits_a, hits_b);
  for (size_t i = 0; i < n; ++i) {
    if (hits_a[i]) {
      ASSERT_EQ(vals_a[i], vals_b[i]) << "i=" << i;
    }
  }
  EXPECT_EQ(counters_a, counters_b)
      << "per-key: " << counters_a.ToString()
      << "\nbatched: " << counters_b.ToString();
  EXPECT_EQ(stats_a.slot_touches, stats_b.slot_touches);
  EXPECT_EQ(stats_a.operations, stats_b.operations);
}

TEST(SimdBatchLookupTest, CountersIndependentOfKernelLevel) {
  // Simulated booking never happens inside the kernels, so forcing the
  // scalar fallback must leave BatchLookup's counter window bit-equal to
  // the best-level run (and the results too).
  ForcedLevelGuard guard;
  Pmu pmu(HwConfig::ScaledXeon(32));
  ProbeFixture f(&pmu);
  const size_t n = f.probe_keys.size();
  std::vector<uint8_t> hits[2];
  std::vector<int64_t> vals[2];
  PmuCounters counters[2];
  int which = 0;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
    simd::ForceLevel(level);
    hits[which].assign(n, 0);
    vals[which].assign(n, -1);
    f.table.BatchLookup(f.probe_keys.data(), n, vals[which].data(),
                        hits[which].data());  // warm pass
    pmu.ResetCounters();
    f.table.BatchLookup(f.probe_keys.data(), n, vals[which].data(),
                        hits[which].data());
    counters[which] = pmu.Read();
    ++which;
  }
  EXPECT_EQ(hits[0], hits[1]);
  EXPECT_EQ(vals[0], vals[1]);
  EXPECT_EQ(counters[0], counters[1])
      << "scalar: " << counters[0].ToString()
      << "\nbest:   " << counters[1].ToString();
}

TEST(SimdProbeKernelTest, BatchedAndScalarPathsAgreeWithBatchLookup) {
  Pmu pmu(HwConfig::ScaledXeon(32));
  ProbeFixture f(&pmu);
  const size_t n = f.probe_keys.size();
  std::vector<uint8_t> hits_ref(n), hits_a(n), hits_b(n);
  std::vector<int64_t> vals_ref(n, -1), vals_a(n, -1), vals_b(n, -1);
  f.table.BatchLookup(f.probe_keys.data(), n, vals_ref.data(),
                      hits_ref.data());
  const size_t count_a = f.table.ProbeKernel(
      f.probe_keys.data(), n, vals_a.data(), hits_a.data(), /*batched=*/false);
  const size_t count_b = f.table.ProbeKernel(
      f.probe_keys.data(), n, vals_b.data(), hits_b.data(), /*batched=*/true);
  EXPECT_EQ(count_a, count_b);
  EXPECT_EQ(hits_a, hits_ref);
  EXPECT_EQ(hits_b, hits_ref);
  size_t ref_count = 0;
  for (size_t i = 0; i < n; ++i) {
    ref_count += hits_ref[i];
    if (hits_ref[i]) {
      ASSERT_EQ(vals_a[i], vals_ref[i]);
      ASSERT_EQ(vals_b[i], vals_ref[i]);
    }
  }
  EXPECT_EQ(count_a, ref_count);
}

}  // namespace
}  // namespace nipo
