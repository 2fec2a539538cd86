/// Differential test of the block encoder against a reference encoder.
///
/// The reference is the encoder storage used before it priced blocks in
/// bounded work: it sorts every value's bit pattern of a block to count
/// the distinct values, builds the dictionary candidate whenever it has at
/// most 4096 entries, writes each code by binary search, and picks the
/// smallest of plain, dictionary and bit-packing by strict byte-size
/// comparison in that order. EncodedColumn::Encode must reproduce its
/// every EncodedBlock field and ZoneMapEntry bit for bit: on all three
/// types, at block sizes 1..65,536 with short tails, around both code
/// width steps and the dictionary cap, on sign-mixed int32 (pattern order
/// differs from value order), int64 extremes, NaN payloads and signed
/// zeros, at bit widths either side of the byte steps, on exact size ties
/// between every pair of encodings, and on a whole generated lineitem.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "storage/encoding.h"
#include "storage/table.h"
#include "tpch/tpch_gen.h"

namespace nipo {
namespace {

constexpr size_t kReferenceMaxDictionary = 4096;

inline uint64_t PatternOf(int32_t v) {
  return static_cast<uint64_t>(static_cast<uint32_t>(v));
}
inline uint64_t PatternOf(int64_t v) { return static_cast<uint64_t>(v); }
inline uint64_t PatternOf(double v) { return std::bit_cast<uint64_t>(v); }

template <typename T>
T FromPattern(uint64_t pattern) {
  if constexpr (std::is_same_v<T, int32_t>) {
    return static_cast<int32_t>(static_cast<uint32_t>(pattern));
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return static_cast<int64_t>(pattern);
  } else {
    return std::bit_cast<double>(pattern);
  }
}

uint32_t ReferenceCodeWidth(size_t dict_size) {
  if (dict_size <= (size_t{1} << 8)) return 1;
  if (dict_size <= (size_t{1} << 16)) return 2;
  return 4;
}

void ReferenceWriteCode(uint8_t* codes, uint32_t code_width, size_t index,
                        uint32_t code) {
  std::memcpy(codes + index * code_width, &code, code_width);
}

/// Writes value `index` of a `bits`-wide little-endian packed stream
/// (zero-initialized buffer, values OR-ed in).
void ReferencePackBits(uint64_t* words, size_t index, uint32_t bits,
                       uint64_t value) {
  const uint64_t bit_pos = static_cast<uint64_t>(index) * bits;
  const size_t word = static_cast<size_t>(bit_pos >> 6);
  const uint32_t off = static_cast<uint32_t>(bit_pos & 63);
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  words[word] |= value << off;
  if (off + bits > 64) words[word + 1] |= value >> (64 - off);
}

/// The sort-every-value encoder of one block.
template <typename T>
void ReferenceEncodeBlock(const T* src, size_t row_begin, size_t n,
                          EncodedBlock* block, ZoneMapEntry* zone) {
  constexpr size_t kWidth = sizeof(T);
  block->row_begin = row_begin;
  block->row_count = n;
  zone->row_begin = row_begin;
  zone->row_count = n;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(src[i]);
    if (std::isnan(d)) {
      zone->has_nan = true;
      continue;
    }
    zone->min = std::min(zone->min, d);
    zone->max = std::max(zone->max, d);
  }

  const size_t plain_bytes = n * kWidth;
  std::vector<uint64_t> patterns;
  for (size_t i = 0; i < n; ++i) patterns.push_back(PatternOf(src[i]));
  std::sort(patterns.begin(), patterns.end());
  patterns.erase(std::unique(patterns.begin(), patterns.end()),
                 patterns.end());
  size_t dict_bytes = 0;
  const bool dict_ok = patterns.size() <= kReferenceMaxDictionary;
  if (dict_ok) {
    dict_bytes =
        n * ReferenceCodeWidth(patterns.size()) + patterns.size() * kWidth;
  }

  uint32_t bit_width = 0;
  int64_t frame_base = 0;
  size_t pack_bytes = 0;
  const bool pack_ok = std::is_integral_v<T> && n > 0;
  if (pack_ok) {
    int64_t lo = static_cast<int64_t>(src[0]);
    int64_t hi = lo;
    for (size_t i = 1; i < n; ++i) {
      lo = std::min(lo, static_cast<int64_t>(src[i]));
      hi = std::max(hi, static_cast<int64_t>(src[i]));
    }
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    bit_width = static_cast<uint32_t>(std::bit_width(range));
    frame_base = lo;
    pack_bytes = ((n * static_cast<size_t>(bit_width) + 63) / 64) * 8;
  }

  size_t best_bytes = plain_bytes;
  BlockEncoding encoding = BlockEncoding::kPlain;
  if (dict_ok && dict_bytes < best_bytes) {
    best_bytes = dict_bytes;
    encoding = BlockEncoding::kDictionary;
  }
  if (pack_ok && pack_bytes < best_bytes) {
    encoding = BlockEncoding::kBitPacked;
  }

  block->encoding = encoding;
  switch (encoding) {
    case BlockEncoding::kPlain:
      block->plain.resize(plain_bytes);
      std::memcpy(block->plain.data(), src, plain_bytes);
      return;
    case BlockEncoding::kDictionary:
      block->code_width = ReferenceCodeWidth(patterns.size());
      block->dict_size = patterns.size();
      block->dict.resize(patterns.size() * kWidth);
      for (size_t i = 0; i < patterns.size(); ++i) {
        const T v = FromPattern<T>(patterns[i]);
        std::memcpy(block->dict.data() + i * kWidth, &v, kWidth);
      }
      block->codes.resize(n * block->code_width);
      for (size_t i = 0; i < n; ++i) {
        const auto it = std::lower_bound(patterns.begin(), patterns.end(),
                                         PatternOf(src[i]));
        ReferenceWriteCode(block->codes.data(), block->code_width, i,
                           static_cast<uint32_t>(it - patterns.begin()));
      }
      return;
    case BlockEncoding::kBitPacked:
      block->bit_width = bit_width;
      block->frame_base = frame_base;
      if (bit_width > 0) {
        block->words.assign((n * static_cast<size_t>(bit_width) + 63) / 64,
                            0);
        for (size_t i = 0; i < n; ++i) {
          ReferencePackBits(
              block->words.data(), i, bit_width,
              static_cast<uint64_t>(static_cast<int64_t>(src[i])) -
                  static_cast<uint64_t>(frame_base));
        }
      }
      return;
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Compares every field of two blocks and zone maps, doubles by bit
/// pattern.
void ExpectSameBlock(const EncodedBlock& got, const ZoneMapEntry& got_zone,
                     const EncodedBlock& want, const ZoneMapEntry& want_zone,
                     const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.encoding, want.encoding);
  EXPECT_EQ(got.row_begin, want.row_begin);
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.plain, want.plain);
  EXPECT_EQ(got.codes, want.codes);
  EXPECT_EQ(got.code_width, want.code_width);
  EXPECT_EQ(got.dict, want.dict);
  EXPECT_EQ(got.dict_size, want.dict_size);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.bit_width, want.bit_width);
  EXPECT_EQ(got.frame_base, want.frame_base);
  EXPECT_EQ(got_zone.row_begin, want_zone.row_begin);
  EXPECT_EQ(got_zone.row_count, want_zone.row_count);
  EXPECT_EQ(Bits(got_zone.min), Bits(want_zone.min));
  EXPECT_EQ(Bits(got_zone.max), Bits(want_zone.max));
  EXPECT_EQ(got_zone.has_nan, want_zone.has_nan);
}

/// Encodes `values[0..n)` with EncodedColumn::Encode and with the
/// reference, block by block, and compares them.
template <typename T>
void ExpectMatchesReference(const T* values, size_t n, size_t block_values,
                            const std::string& label) {
  Column<T> column(label, std::vector<T>(values, values + n));
  EncodingOptions options;
  options.block_values = block_values;
  auto encoded = EncodedColumn::Encode(column, options);
  ASSERT_TRUE(encoded.ok()) << label;
  const EncodedColumn& col = *encoded.ValueOrDie();
  ASSERT_EQ(col.num_blocks(), (n + block_values - 1) / block_values) << label;
  size_t total_bytes = 0;
  for (size_t b = 0; b < col.num_blocks(); ++b) {
    const size_t begin = b * block_values;
    EncodedBlock block;
    ZoneMapEntry zone;
    ReferenceEncodeBlock(values + begin, begin,
                         std::min(block_values, n - begin), &block, &zone);
    ExpectSameBlock(col.block(b), col.zone(b), block, zone,
                    label + " block " + std::to_string(b));
    total_bytes += block.encoded_bytes();
  }
  EXPECT_EQ(col.total_encoded_bytes(), total_bytes) << label;
}

template <typename T>
void ExpectMatchesReference(const std::vector<T>& values, size_t block_values,
                            const std::string& label) {
  ExpectMatchesReference(values.data(), values.size(), block_values, label);
}

/// The reference's choice for a one-block column, to pin which side of a
/// size tie a case lands on.
template <typename T>
BlockEncoding ReferenceEncodingOf(const std::vector<T>& values) {
  EncodedBlock block;
  ZoneMapEntry zone;
  ReferenceEncodeBlock(values.data(), 0, values.size(), &block, &zone);
  return block.encoding;
}

/// `n` values drawn from `distinct` fixed values spread over the whole
/// bit-pattern space of T, so bit-packing cannot compete; every one of
/// the distinct values occurs.
template <typename T>
std::vector<T> FromDistinct(size_t n, size_t distinct, uint64_t seed) {
  Prng prng(seed);
  std::vector<T> pool(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    // Distinct low bits keep the pool duplicate-free; random high bits
    // spread it.
    const uint64_t high = prng.Next() & ~uint64_t{0xFFFF};
    if constexpr (std::is_same_v<T, double>) {
      pool[i] = static_cast<double>(i) + 0.5 +
                static_cast<double>(high >> 48) * 65536.0;
    } else if constexpr (std::is_same_v<T, int32_t>) {
      pool[i] = static_cast<int32_t>(
          (static_cast<uint32_t>(high >> 32) & 0xFFFF0000u) |
          static_cast<uint32_t>(i));
    } else {
      pool[i] = static_cast<int64_t>(high | i);
    }
  }
  std::vector<T> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = i < distinct ? pool[i] : pool[prng.NextBounded(distinct)];
  }
  // Shuffle so the first occurrences are not a prefix.
  for (size_t i = n; i > 1; --i) {
    std::swap(values[i - 1], values[prng.NextBounded(i)]);
  }
  return values;
}

TEST(EncodingReferenceTest, BlockSizesAndTails) {
  Prng prng(1);
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         size_t{3 * 64 + 17}}) {
    std::vector<int32_t> i32(n);
    std::vector<int64_t> i64(n);
    std::vector<double> f64(n);
    for (size_t i = 0; i < n; ++i) {
      i32[i] = static_cast<int32_t>(prng.NextInRange(-40, 40));
      i64[i] = prng.NextInRange(0, 1'000'000'000'000);
      f64[i] = static_cast<double>(prng.NextBounded(8)) * 0.125;
    }
    const std::string size = " n=" + std::to_string(n);
    ExpectMatchesReference(i32, 64, "int32" + size);
    ExpectMatchesReference(i64, 64, "int64" + size);
    ExpectMatchesReference(f64, 64, "double" + size);
  }
  // Full 65,536-value blocks plus a short tail, at the default size.
  const size_t n = 65536 + 100;
  std::vector<int32_t> i32(n);
  std::vector<int64_t> i64(n);
  std::vector<double> f64(n);
  for (size_t i = 0; i < n; ++i) {
    i32[i] = static_cast<int32_t>(prng.NextInRange(0, 2000));
    i64[i] = prng.NextInRange(-5, 5);
    f64[i] = static_cast<double>(prng.NextBounded(1000));
  }
  ExpectMatchesReference(i32, 65536, "int32 65536+tail");
  ExpectMatchesReference(i64, 65536, "int64 65536+tail");
  ExpectMatchesReference(f64, 65536, "double 65536+tail");
}

TEST(EncodingReferenceTest, DistinctCountsAroundCodeWidthAndCap) {
  const size_t n = 65536;
  for (const size_t distinct :
       {size_t{255}, size_t{256}, size_t{257}, size_t{4095}, size_t{4096},
        size_t{4097}}) {
    const std::string label = " distinct=" + std::to_string(distinct);
    ExpectMatchesReference(FromDistinct<int32_t>(n, distinct, distinct), n,
                           "int32" + label);
    ExpectMatchesReference(FromDistinct<int64_t>(n, distinct, distinct), n,
                           "int64" + label);
    ExpectMatchesReference(FromDistinct<double>(n, distinct, distinct), n,
                           "double" + label);
  }
  // The cap decides these blocks: 4096 distinct values dictionary-encode,
  // 4097 stay plain.
  EXPECT_EQ(ReferenceEncodingOf(FromDistinct<double>(n, 4096, 1)),
            BlockEncoding::kDictionary);
  EXPECT_EQ(ReferenceEncodingOf(FromDistinct<double>(n, 4097, 1)),
            BlockEncoding::kPlain);
  EXPECT_EQ(ReferenceEncodingOf(FromDistinct<int32_t>(n, 4097, 1)),
            BlockEncoding::kPlain);
}

TEST(EncodingReferenceTest, SignMixedInt32PatternOrder) {
  // Negative int32 patterns sort above positive ones, so the dictionary
  // is in pattern order, not value order.
  Prng prng(5);
  for (const size_t distinct : {size_t{3}, size_t{100}, size_t{300}}) {
    std::vector<int32_t> pool(distinct);
    for (size_t i = 0; i < distinct; ++i) {
      pool[i] = static_cast<int32_t>(prng.NextInRange(
          std::numeric_limits<int32_t>::min(),
          std::numeric_limits<int32_t>::max()));
    }
    pool[0] = -1;
    pool[1] = 1;
    std::vector<int32_t> values(65536 + 7);
    for (auto& v : values) v = pool[prng.NextBounded(distinct)];
    ExpectMatchesReference(values, 65536,
                           "sign-mixed distinct=" + std::to_string(distinct));
    std::vector<int32_t> small(values.begin(), values.begin() + 200);
    ExpectMatchesReference(small, 64,
                           "sign-mixed small distinct=" +
                               std::to_string(distinct));
  }
  // Two values either side of zero: a 2-entry dictionary (64 + 8 B) beats
  // 32-bit packing and plain (256 B).
  std::vector<int32_t> two(64);
  for (size_t i = 0; i < two.size(); ++i) {
    two[i] = i % 3 == 0 ? std::numeric_limits<int32_t>::min() : 7;
  }
  EXPECT_EQ(ReferenceEncodingOf(two), BlockEncoding::kDictionary);
  ExpectMatchesReference(two, 64, "int32 min and 7");
}

TEST(EncodingReferenceTest, Int64Extremes) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> extremes = {
      kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1, -123456789012345678};
  ExpectMatchesReference(extremes, 64, "int64 extremes");
  std::vector<int64_t> repeated(64 * 5 + 3);
  Prng prng(9);
  for (auto& v : repeated) v = extremes[prng.NextBounded(extremes.size())];
  ExpectMatchesReference(repeated, 64, "int64 extremes repeated");
  std::vector<int64_t> top(64, kMax);
  top[5] = kMax - 3;
  ExpectMatchesReference(top, 64, "int64 near max");
  std::vector<int64_t> bottom(64, kMin);
  bottom[9] = kMin + 200;
  ExpectMatchesReference(bottom, 64, "int64 near min");
}

TEST(EncodingReferenceTest, NanPayloadsAndSignedZeros) {
  const std::vector<double> specials = {
      std::bit_cast<double>(uint64_t{0x7FF8000000000000}),  // quiet NaN
      std::bit_cast<double>(uint64_t{0xFFF8000000000000}),  // negative NaN
      std::bit_cast<double>(uint64_t{0x7FF0000000000001}),  // signaling
      std::bit_cast<double>(uint64_t{0x7FF8DEADBEEF0001}),  // payload
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.5,
      -2.25};
  Prng prng(21);
  std::vector<double> values(65536 + 64 * 3);
  for (auto& v : values) v = specials[prng.NextBounded(specials.size())];
  ExpectMatchesReference(values, 65536, "specials large");
  ExpectMatchesReference(values, 64, "specials small");
  // Zero order decides the zone's min/max sign bit.
  ExpectMatchesReference(std::vector<double>{0.0, -0.0, 0.0}, 64, "0,-0");
  ExpectMatchesReference(std::vector<double>{-0.0, 0.0, -0.0}, 64, "-0,0");
  // All NaN: the zone keeps its empty sentinel.
  std::vector<double> nans(100);
  for (size_t i = 0; i < nans.size(); ++i) {
    nans[i] = std::bit_cast<double>(uint64_t{0x7FF8000000000000} | i);
  }
  ExpectMatchesReference(nans, 64, "all NaN");
  // Many distinct values around NaNs and zeros: plain.
  std::vector<double> mixed(64 * 4);
  for (size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = i % 7 == 0 ? specials[i % specials.size()]
                          : static_cast<double>(i) * 1.0001;
  }
  ExpectMatchesReference(mixed, 64, "mixed specials");
}

TEST(EncodingReferenceTest, BitWidthsAroundByteSteps) {
  Prng prng(33);
  for (const uint32_t width : {7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 63u}) {
    for (const size_t n : {size_t{64}, size_t{65536 + 64}}) {
      const std::string label =
          " width=" + std::to_string(width) + " n=" + std::to_string(n);
      const uint64_t span = (uint64_t{1} << width) - 1;
      const int64_t base = -static_cast<int64_t>(span / 2) - 1;
      std::vector<int64_t> i64(n);
      for (auto& v : i64) {
        v = static_cast<int64_t>(static_cast<uint64_t>(base) +
                                 (prng.Next() & span));
      }
      i64[0] = base;  // pin the range to exactly `width` bits
      i64[1] = static_cast<int64_t>(static_cast<uint64_t>(base) + span);
      ExpectMatchesReference(i64, 65536, "int64" + label);
      if (width <= 32) {
        std::vector<int32_t> i32(n);
        for (size_t i = 0; i < n; ++i) {
          i32[i] = static_cast<int32_t>(i64[i]);
        }
        ExpectMatchesReference(i32, 65536, "int32" + label);
      }
    }
  }
  // Few distinct values at each width: dictionary against packing.
  for (const uint32_t width : {7u, 8u, 9u, 15u, 16u, 17u}) {
    std::vector<int32_t> values(65536);
    for (auto& v : values) {
      v = static_cast<int32_t>(prng.NextBounded(200) *
                               ((uint64_t{1} << width) - 1) / 199);
    }
    ExpectMatchesReference(values, 65536,
                           "few distinct width=" + std::to_string(width));
  }
}

TEST(EncodingReferenceTest, ExactSizeTies) {
  // dict == pack, 64 int32 values {0, 256}: 64 + 2*4 = 72 B against
  // 9 bits * 64 = 72 B. The dictionary keeps the tie.
  std::vector<int32_t> dict_pack(64);
  for (size_t i = 0; i < dict_pack.size(); ++i) {
    dict_pack[i] = i % 2 == 0 ? 0 : 256;
  }
  EXPECT_EQ(ReferenceEncodingOf(dict_pack), BlockEncoding::kDictionary);
  ExpectMatchesReference(dict_pack, 64, "tie dict == pack int32");
  // The same at full block size with 2-byte codes: 2048 distinct values
  // over 17 bits, 131072 + 2048*4 = 139264 B = 17 bits * 65536.
  std::vector<int32_t> dict_pack_large(65536);
  for (size_t i = 0; i < dict_pack_large.size(); ++i) {
    dict_pack_large[i] = static_cast<int32_t>((i % 2048) * 64);
  }
  EXPECT_EQ(ReferenceEncodingOf(dict_pack_large), BlockEncoding::kDictionary);
  ExpectMatchesReference(dict_pack_large, 65536, "tie dict == pack large");
  // One more distinct value breaks the tie towards packing.
  dict_pack_large[7] = 5;
  EXPECT_EQ(ReferenceEncodingOf(dict_pack_large), BlockEncoding::kBitPacked);
  ExpectMatchesReference(dict_pack_large, 65536, "dict just above pack");
  // int64 {0, 512}: 64 + 2*8 = 80 B against 10 bits * 64 = 80 B.
  std::vector<int64_t> dict_pack64(64);
  for (size_t i = 0; i < dict_pack64.size(); ++i) {
    dict_pack64[i] = i % 3 == 0 ? 512 : 0;
  }
  EXPECT_EQ(ReferenceEncodingOf(dict_pack64), BlockEncoding::kDictionary);
  ExpectMatchesReference(dict_pack64, 64, "tie dict == pack int64");

  // dict == plain, 64 doubles with 56 distinct: 64 + 56*8 = 512 B. Plain
  // keeps the tie; 55 distinct values make the dictionary win.
  for (const size_t distinct : {size_t{55}, size_t{56}}) {
    std::vector<double> values(64);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<double>(i % distinct) * 3.5;
    }
    EXPECT_EQ(ReferenceEncodingOf(values), distinct == 56
                                               ? BlockEncoding::kPlain
                                               : BlockEncoding::kDictionary);
    ExpectMatchesReference(values, 64,
                           "dict vs plain distinct=" +
                               std::to_string(distinct));
  }
  // dict == plain == pack, 64 int32 with 48 distinct over 32 bits:
  // 64 + 48*4 = 256 B = plain = 32 bits * 64.
  std::vector<int32_t> three_way = FromDistinct<int32_t>(64, 48, 4);
  three_way[0] = std::numeric_limits<int32_t>::min();
  three_way[1] = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(ReferenceEncodingOf(three_way), BlockEncoding::kPlain);
  ExpectMatchesReference(three_way, 64, "tie dict == plain == pack");

  // pack == plain: 32-bit range over 64 distinct int32 values, and the
  // full 64-bit range of int64.
  std::vector<int32_t> pack_plain = FromDistinct<int32_t>(64, 64, 6);
  pack_plain[0] = std::numeric_limits<int32_t>::min();
  pack_plain[1] = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(ReferenceEncodingOf(pack_plain), BlockEncoding::kPlain);
  ExpectMatchesReference(pack_plain, 64, "tie pack == plain int32");
  std::vector<int64_t> pack_plain64 = FromDistinct<int64_t>(64, 64, 8);
  pack_plain64[0] = std::numeric_limits<int64_t>::min();
  pack_plain64[1] = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(ReferenceEncodingOf(pack_plain64), BlockEncoding::kPlain);
  ExpectMatchesReference(pack_plain64, 64, "tie pack == plain int64");
}

TEST(EncodingReferenceTest, RandomBlocks) {
  Prng prng(77);
  for (int round = 0; round < 40; ++round) {
    const size_t block_values = size_t{1} << (prng.NextBounded(10) + 1);
    const size_t n = 1 + prng.NextBounded(block_values * 4);
    const size_t distinct = 1 + prng.NextBounded(prng.NextBounded(2) == 0
                                                     ? 16
                                                     : block_values);
    const std::string label = "round " + std::to_string(round);
    ExpectMatchesReference(FromDistinct<int32_t>(n, std::min(n, distinct),
                                                 round),
                           block_values, "int32 " + label);
    ExpectMatchesReference(FromDistinct<int64_t>(n, std::min(n, distinct),
                                                 round),
                           block_values, "int64 " + label);
    ExpectMatchesReference(FromDistinct<double>(n, std::min(n, distinct),
                                                round),
                           block_values, "double " + label);
  }
}

TEST(EncodingReferenceTest, WholeLineitem) {
  TpchConfig config;
  config.scale_factor = 0.01;
  auto lineitem = GenerateLineitem(config);
  ASSERT_TRUE(lineitem.ok());
  const Table& table = *lineitem.ValueOrDie();
  for (const size_t block_values : {size_t{65536}, size_t{4096}}) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const ColumnBase& column = *table.column(c);
      const std::string label =
          column.name() + " block=" + std::to_string(block_values);
      switch (column.type()) {
        case DataType::kInt32:
          ExpectMatchesReference(
              static_cast<const int32_t*>(column.data()), column.size(),
              block_values, label);
          break;
        case DataType::kInt64:
          ExpectMatchesReference(
              static_cast<const int64_t*>(column.data()), column.size(),
              block_values, label);
          break;
        case DataType::kDouble:
          ExpectMatchesReference(static_cast<const double*>(column.data()),
                                 column.size(), block_values, label);
          break;
      }
    }
  }
}

}  // namespace
}  // namespace nipo
