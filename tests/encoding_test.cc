/// \file encoding_test.cc
/// Property tests of the compressed columnar layer (DESIGN.md Section
/// 10): encode/decode round trips over adversarial value shapes
/// (all-equal, single distinct, max bit width, negative int64 extremes,
/// NaN doubles), zone-map refutation checked against brute force, and
/// the ColumnView scan contract -- an encoded column must scan to the
/// same values as its plain source while touching fewer simulated bytes
/// when the data compresses.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/prng.h"
#include "storage/column_view.h"
#include "storage/encoding.h"
#include "storage/table.h"

namespace nipo {
namespace {

/// Small blocks so every test exercises multi-block columns.
EncodingOptions SmallBlocks() {
  EncodingOptions options;
  options.block_values = 64;
  return options;
}

template <typename T>
std::unique_ptr<Column<T>> MakeColumn(const std::string& name,
                                      std::vector<T> values) {
  return std::make_unique<Column<T>>(name, std::move(values));
}

/// Round-trips `values` through Encode and checks every row via both
/// DecodeRange and single-value access. Returns the encoded column for
/// further inspection.
template <typename T>
std::unique_ptr<EncodedColumn> RoundTrip(std::vector<T> values,
                                         const EncodingOptions& options) {
  auto plain = MakeColumn<T>("c", values);
  auto encoded = EncodedColumn::Encode(*plain, options);
  EXPECT_TRUE(encoded.ok());
  std::unique_ptr<EncodedColumn> col = std::move(encoded.ValueOrDie());
  EXPECT_EQ(col->size(), values.size());

  std::vector<T> decoded(values.size());
  col->DecodeRange(0, values.size(), decoded.data());
  for (size_t i = 0; i < values.size(); ++i) {
    // Bit-pattern equality so NaN payloads round-trip too.
    EXPECT_EQ(std::memcmp(&decoded[i], &values[i], sizeof(T)), 0)
        << "row " << i;
  }
  // Unaligned partial ranges must agree with the full decode.
  if (values.size() > 5) {
    std::vector<T> partial(values.size() - 5);
    col->DecodeRange(3, values.size() - 5, partial.data());
    for (size_t i = 0; i < partial.size(); ++i) {
      EXPECT_EQ(std::memcmp(&partial[i], &values[i + 3], sizeof(T)), 0);
    }
  }
  return col;
}

TEST(EncodingTest, RoundTripRandomInt32) {
  Prng prng(1);
  std::vector<int32_t> values(1000);
  for (auto& v : values) {
    v = static_cast<int32_t>(prng.NextInRange(-500, 500));
  }
  auto col = RoundTrip(values, SmallBlocks());
  EXPECT_GT(col->num_blocks(), 1u);
  EXPECT_LT(col->total_encoded_bytes(), values.size() * sizeof(int32_t));
}

TEST(EncodingTest, RoundTripRandomInt64AndDouble) {
  Prng prng(2);
  std::vector<int64_t> i64(777);
  std::vector<double> f64(777);
  for (size_t i = 0; i < i64.size(); ++i) {
    i64[i] = prng.NextInRange(-1'000'000, 1'000'000);
    f64[i] = static_cast<double>(prng.NextInRange(0, 99)) * 0.25;
  }
  RoundTrip(i64, SmallBlocks());
  RoundTrip(f64, SmallBlocks());
}

TEST(EncodingTest, AllEqualColumnCollapses) {
  std::vector<int64_t> values(500, 42);
  auto col = RoundTrip(values, SmallBlocks());
  // Every block is either a 1-entry dictionary or bit_width-0 packing;
  // either way the payload is tiny.
  EXPECT_LT(col->total_encoded_bytes(), values.size());
  for (size_t b = 0; b < col->num_blocks(); ++b) {
    EXPECT_NE(col->block(b).encoding, BlockEncoding::kPlain);
    EXPECT_EQ(col->zone(b).min, 42.0);
    EXPECT_EQ(col->zone(b).max, 42.0);
  }
}

TEST(EncodingTest, SingleDistinctDoubleUsesDictionary) {
  std::vector<double> values(300, 3.25);
  auto col = RoundTrip(values, SmallBlocks());
  for (size_t b = 0; b < col->num_blocks(); ++b) {
    EXPECT_EQ(col->block(b).encoding, BlockEncoding::kDictionary);
    EXPECT_EQ(col->block(b).dict_size, 1u);
  }
}

TEST(EncodingTest, MaxBitWidthAndInt64Extremes) {
  // INT64_MIN..INT64_MAX in one block: the frame-of-reference range
  // wraps uint64 and needs the full 64-bit width, so the packing (64 B)
  // only ties plain (64 B) and the block stays plain; the 8-entry
  // dictionary (72 B) loses to both.
  std::vector<int64_t> extremes = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(),
                                   0,
                                   -1,
                                   1,
                                   std::numeric_limits<int64_t>::min() + 1,
                                   std::numeric_limits<int64_t>::max() - 1,
                                   -123456789012345678};
  auto col = RoundTrip(extremes, SmallBlocks());
  ASSERT_EQ(col->num_blocks(), 1u);
  EXPECT_EQ(col->block(0).encoding, BlockEncoding::kPlain);
  for (size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_EQ(col->ValueAsInt64(i), extremes[i]);
  }

  // A range in [2^62, 2^63) -- here -2^62 .. 2^62 - 1 -- packs at width
  // 63 (504 B < plain's 512 B), so values straddle words; 64 distinct
  // values make the dictionary (576 B) lose.
  constexpr int64_t kQuarter = int64_t{1} << 62;
  Prng prng(3);
  std::vector<int64_t> wide(64);
  for (auto& v : wide) {
    v = static_cast<int64_t>(prng.Next() >> 1) - kQuarter;
  }
  wide[0] = -kQuarter;
  wide[1] = kQuarter - 1;
  col = RoundTrip(wide, SmallBlocks());
  ASSERT_EQ(col->num_blocks(), 1u);
  EXPECT_EQ(col->block(0).encoding, BlockEncoding::kBitPacked);
  EXPECT_EQ(col->block(0).bit_width, 63u);
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(col->ValueAsInt64(i), wide[i]);
  }
}

TEST(EncodingTest, NanDoublesRoundTripAndZoneSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {1.0, nan, 2.0, nan, -7.5, 0.0};
  auto col = RoundTrip(values, SmallBlocks());
  ASSERT_EQ(col->num_blocks(), 1u);
  const ZoneMapEntry& zone = col->zone(0);
  EXPECT_TRUE(zone.has_nan);
  EXPECT_EQ(zone.min, -7.5);  // min/max over non-NaN values only
  EXPECT_EQ(zone.max, 2.0);
  // NaN passes kNe against any constant, so a NaN block never refutes
  // kNe -- even when min == max == value for the non-NaN rows.
  EXPECT_FALSE(ZoneRefutes(zone, CompareOp::kNe, 1.0));
  // But ordered comparisons outside [min, max] still refute: NaN fails
  // every ordered comparison, so skipping loses nothing.
  EXPECT_TRUE(ZoneRefutes(zone, CompareOp::kGt, 2.0));
  EXPECT_TRUE(ZoneRefutes(zone, CompareOp::kLt, -7.5));
  EXPECT_TRUE(ZoneRefutes(zone, CompareOp::kEq, 99.0));
  EXPECT_FALSE(ZoneRefutes(zone, CompareOp::kEq, 1.0));
}

TEST(EncodingTest, AllNanBlockRefutesEverythingButNe) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values(10, nan);
  auto col = RoundTrip(values, SmallBlocks());
  const ZoneMapEntry& zone = col->zone(0);
  EXPECT_TRUE(zone.has_nan);
  EXPECT_GT(zone.min, zone.max);  // empty sentinel
  EXPECT_TRUE(ZoneRefutes(zone, CompareOp::kLt, 1e300));
  EXPECT_TRUE(ZoneRefutes(zone, CompareOp::kEq, 0.0));
  EXPECT_FALSE(ZoneRefutes(zone, CompareOp::kNe, 0.0));
}

TEST(EncodingTest, ZoneRefutationNeverDisagreesWithBruteForce) {
  // Randomized soundness: whenever a zone refutes (op, value), no row of
  // that block may satisfy it under the executor's double-domain compare.
  Prng prng(7);
  static constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                       CompareOp::kGt, CompareOp::kGe,
                                       CompareOp::kEq, CompareOp::kNe};
  for (int round = 0; round < 20; ++round) {
    std::vector<int32_t> values(256);
    for (auto& v : values) {
      v = static_cast<int32_t>(prng.NextInRange(-100, 100));
    }
    auto plain = MakeColumn<int32_t>("c", values);
    auto encoded = EncodedColumn::Encode(*plain, SmallBlocks());
    ASSERT_TRUE(encoded.ok());
    const EncodedColumn& col = *encoded.ValueOrDie();
    for (int trial = 0; trial < 50; ++trial) {
      const CompareOp op = kOps[prng.NextBounded(6)];
      const double value =
          static_cast<double>(prng.NextInRange(-120, 120));
      for (size_t b = 0; b < col.num_blocks(); ++b) {
        if (!ZoneRefutes(col.zone(b), op, value)) continue;
        const ZoneMapEntry& zone = col.zone(b);
        for (size_t r = zone.row_begin; r < zone.row_begin + zone.row_count;
             ++r) {
          EXPECT_FALSE(EvaluateCompare(
              static_cast<double>(values[r]), op, value))
              << "block " << b << " row " << r;
        }
      }
    }
  }
}

TEST(EncodingTest, ColumnViewScansEncodedAndPlainIdentically) {
  // The scan contract: for any (block_begin, sel, active), the run an
  // encoded column produces must read back the same values as the plain
  // source -- and a compressible column must book fewer L1 bytes.
  Prng prng(11);
  const size_t rows = 10'000;
  std::vector<int32_t> values(rows);
  for (auto& v : values) {
    v = static_cast<int32_t>(prng.NextBounded(16));  // 4-bit domain
  }
  auto plain = MakeColumn<int32_t>("c", values);
  auto encoded = EncodedColumn::Encode(*plain, {});
  ASSERT_TRUE(encoded.ok());

  auto plain_view = ColumnView::Bind(plain.get());
  auto enc_view = ColumnView::Bind(encoded.ValueOrDie().get());
  ASSERT_TRUE(plain_view.ok());
  ASSERT_TRUE(enc_view.ok());
  EXPECT_FALSE(plain_view.ValueOrDie().encoded());
  EXPECT_TRUE(enc_view.ValueOrDie().encoded());

  Pmu plain_pmu, enc_pmu;
  DecodeScratch scratch;
  // Dense scans at several offsets, plus a strided selection.
  for (const size_t begin : {size_t{0}, size_t{1000}, size_t{9000}}) {
    const size_t n = std::min<size_t>(1024, rows - begin);
    const ScanRun p =
        plain_view.ValueOrDie().ScanBlock(&plain_pmu, begin, nullptr, n,
                                          &scratch);
    DecodeScratch enc_scratch;
    const ScanRun e = enc_view.ValueOrDie().ScanBlock(&enc_pmu, begin,
                                                      nullptr, n,
                                                      &enc_scratch);
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(ScanRunValueAsInt64(p, j), ScanRunValueAsInt64(e, j))
          << "begin " << begin << " j " << j;
    }
  }
  std::vector<uint32_t> sel;
  for (uint32_t j = 0; j < 512; ++j) sel.push_back(j * 3);
  const ScanRun ps = plain_view.ValueOrDie().ScanBlock(
      &plain_pmu, 100, sel.data(), sel.size(), &scratch);
  DecodeScratch enc_scratch;
  const ScanRun es = enc_view.ValueOrDie().ScanBlock(
      &enc_pmu, 100, sel.data(), sel.size(), &enc_scratch);
  for (size_t j = 0; j < sel.size(); ++j) {
    ASSERT_EQ(ScanRunValueAsInt64(ps, j), ScanRunValueAsInt64(es, j));
  }
  // The 4-bit domain dictionary-encodes far below 4 bytes/value, so the
  // encoded scan touches fewer cache lines.
  EXPECT_LT(enc_pmu.Read().l1_accesses, plain_pmu.Read().l1_accesses);
}

TEST(EncodingTest, ColumnViewGatherRowsMatchesPlain) {
  Prng prng(13);
  const size_t rows = 5'000;
  std::vector<int64_t> values(rows);
  for (auto& v : values) v = prng.NextInRange(0, 1000);
  auto plain = MakeColumn<int64_t>("c", values);
  auto encoded = EncodedColumn::Encode(*plain, {});
  ASSERT_TRUE(encoded.ok());

  auto plain_view = ColumnView::Bind(plain.get());
  auto enc_view = ColumnView::Bind(encoded.ValueOrDie().get());
  ASSERT_TRUE(plain_view.ok() && enc_view.ok());

  std::vector<uint32_t> probe_rows;
  for (int i = 0; i < 700; ++i) {
    probe_rows.push_back(static_cast<uint32_t>(prng.NextBounded(rows)));
  }
  Pmu plain_pmu, enc_pmu;
  DecodeScratch a, b;
  const ScanRun p = plain_view.ValueOrDie().GatherRows(
      &plain_pmu, probe_rows.data(), probe_rows.size(), &a);
  const ScanRun e = enc_view.ValueOrDie().GatherRows(
      &enc_pmu, probe_rows.data(), probe_rows.size(), &b);
  for (size_t j = 0; j < probe_rows.size(); ++j) {
    ASSERT_EQ(ScanRunValueAsInt64(p, j), ScanRunValueAsInt64(e, j));
  }
}

TEST(EncodingTest, ZoneRangeQueriesOnColumnView) {
  // Block 0 holds 0..63, block 1 holds 1000..1063, block 2 holds
  // 2000..2063 (block_values = 64): range queries must refute exactly
  // the provably dead ranges.
  std::vector<int32_t> values;
  for (int b = 0; b < 3; ++b) {
    for (int i = 0; i < 64; ++i) values.push_back(b * 1000 + i);
  }
  auto plain = MakeColumn<int32_t>("c", values);
  auto encoded = EncodedColumn::Encode(*plain, SmallBlocks());
  ASSERT_TRUE(encoded.ok());
  auto view = ColumnView::Bind(encoded.ValueOrDie().get());
  ASSERT_TRUE(view.ok());
  const ColumnView& v = view.ValueOrDie();

  EXPECT_TRUE(v.ZoneRefutesRange(0, 64, CompareOp::kGt, 100.0));
  EXPECT_FALSE(v.ZoneRefutesRange(64, 64, CompareOp::kGt, 100.0));
  // A range straddling blocks 0 and 1 refutes only if both do.
  EXPECT_FALSE(v.ZoneRefutesRange(32, 64, CompareOp::kGt, 100.0));
  EXPECT_TRUE(v.ZoneRefutesRange(32, 64, CompareOp::kGt, 2000.0));
  EXPECT_EQ(v.ZoneChecksForRange(32, 64), 2u);
  EXPECT_EQ(v.ZoneChecksForRange(0, 64), 1u);
  // kGt 1500 kills blocks 0 and 1 -- two thirds of the rows.
  EXPECT_NEAR(v.ZonePrunableFraction(CompareOp::kGt, 1500.0), 2.0 / 3.0,
              1e-12);
  // Plain columns have no zone maps and never refute.
  auto plain_view = ColumnView::Bind(plain.get());
  ASSERT_TRUE(plain_view.ok());
  EXPECT_FALSE(
      plain_view.ValueOrDie().ZoneRefutesRange(0, 64, CompareOp::kGt, 1e9));
  EXPECT_EQ(plain_view.ValueOrDie().ZonePrunableFraction(CompareOp::kGt, 0.0),
            0.0);
}

TEST(EncodingTest, EncodeTableColumnsReplacesInPlace) {
  Prng prng(17);
  const size_t rows = 2'000;
  std::vector<int32_t> a(rows);
  std::vector<int64_t> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(8));
    b[i] = prng.NextInRange(0, 100);
  }
  std::vector<int32_t> a_copy = a;
  std::vector<int64_t> b_copy = b;
  Table table("t");
  ASSERT_TRUE(table.AddColumn("a", std::move(a)).ok());
  ASSERT_TRUE(table.AddColumn("b", std::move(b)).ok());

  auto stats = EncodeTableColumns(&table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().columns_encoded, 2u);
  EXPECT_LT(stats.ValueOrDie().encoded_bytes,
            stats.ValueOrDie().plain_bytes);

  // Values survive, now served through the encoded columns.
  for (const char* name : {"a", "b"}) {
    auto col = table.GetColumn(name);
    ASSERT_TRUE(col.ok());
    auto view = ColumnView::Bind(col.ValueOrDie());
    ASSERT_TRUE(view.ok());
    EXPECT_TRUE(view.ValueOrDie().encoded());
  }
  auto va = ColumnView::Bind(table.GetColumn("a").ValueOrDie()).ValueOrDie();
  auto vb = ColumnView::Bind(table.GetColumn("b").ValueOrDie()).ValueOrDie();
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(va.ValueAsInt64(i), a_copy[i]);
    ASSERT_EQ(vb.ValueAsInt64(i), b_copy[i]);
  }
  // Encoding an already-encoded table is a no-op.
  auto again = EncodeTableColumns(&table);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().columns_encoded, 0u);
}

}  // namespace
}  // namespace nipo
