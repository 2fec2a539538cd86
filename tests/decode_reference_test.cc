/// Differential test of the bit-packed decode path against its reference.
///
/// UnpackBits (storage/encoding.h) reads one unaligned 8-byte window per
/// value and falls back to ExtractBits near the end of a block and above
/// kWindowMaxBits bits. It must decode exactly what ExtractBits decodes:
/// at every width 0..64, into int32 and int64, with negative and extreme
/// frame bases, on dense runs from every bit offset to the block's last
/// value (where a window would pass the end of `words`), and on sorted,
/// unsorted and edge-row selections.
///
/// ColumnView groups selected rows by storage block with one rebase and
/// one compare per row. ScanBlock and GatherRows must return the values
/// and book the PmuCounters of the grouping they replaced, kept here as
/// a test-local copy: one BlockIndexOf per element, the packed word index
/// computed per piece, each value read by ExtractBits. Scans start at
/// offsets off the 1,024-row execution grid, so selections span storage
/// blocks of all three encodings.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/prng.h"
#include "hw/pmu.h"
#include "storage/column_view.h"
#include "storage/encoding.h"

namespace nipo {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/// A bit-packed block of `n` random values at `bits`, with `words` sized
/// exactly (no spare capacity, so an over-read lands in a redzone under
/// ASan). The bits past the last value are random too.
EncodedBlock RandomPackedBlock(Prng* prng, size_t n, uint32_t bits,
                               int64_t frame_base) {
  EncodedBlock block;
  block.encoding = BlockEncoding::kBitPacked;
  block.row_count = n;
  block.bit_width = bits;
  block.frame_base = frame_base;
  std::vector<uint64_t> words((n * bits + 63) / 64);
  for (uint64_t& w : words) w = prng->Next();
  block.words = std::move(words);
  return block;
}

/// The reference decode of one packed value: frame_base plus ExtractBits.
template <typename T>
T ReferenceValue(const EncodedBlock& block, size_t row) {
  const uint64_t offset =
      block.bit_width == 0
          ? 0
          : ExtractBits(block.words.data(), row, block.bit_width);
  return static_cast<T>(static_cast<int64_t>(
      static_cast<uint64_t>(block.frame_base) + offset));
}

template <typename T>
void ExpectDenseMatches(const EncodedBlock& block, size_t begin) {
  const size_t count = block.row_count - begin;
  std::vector<T> out(count);
  UnpackBits(block, begin, nullptr, count, out.data());
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(out[i], ReferenceValue<T>(block, begin + i))
        << "bits " << block.bit_width << " n " << block.row_count
        << " begin " << begin << " i " << i;
  }
}

template <typename T>
void ExpectSelectedMatches(const EncodedBlock& block,
                           const std::vector<uint32_t>& rows) {
  std::vector<T> out(rows.size());
  UnpackBits(block, 0, rows.data(), rows.size(), out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(out[i], ReferenceValue<T>(block, rows[i]))
        << "bits " << block.bit_width << " n " << block.row_count << " row "
        << rows[i];
  }
}

/// Sorted random rows of [0, n) at roughly `density`, always holding the
/// first and the last row.
std::vector<uint32_t> SortedSelection(Prng* prng, size_t n, double density) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < n; ++r) {
    if (r == 0 || r + 1 == n || prng->NextDouble() < density) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

template <typename T>
void CheckKernelAtWidth(Prng* prng, uint32_t bits, int64_t frame_base) {
  // Sizes where the last word is full, nearly empty, or the only one.
  for (const size_t n : {size_t{1}, size_t{5}, size_t{64}, size_t{97},
                         size_t{200}, size_t{449}}) {
    const EncodedBlock block = RandomPackedBlock(prng, n, bits, frame_base);
    // Dense runs to the last value from every start row whose bit offset
    // is a distinct value mod 64, and from each of the last 64 rows.
    for (size_t begin = 0; begin < std::min<size_t>(n, 64); ++begin) {
      ExpectDenseMatches<T>(block, begin);
    }
    for (size_t begin = n > 64 ? n - 64 : 0; begin < n; ++begin) {
      ExpectDenseMatches<T>(block, begin);
    }
    for (const double density : {0.02, 0.3, 1.0}) {
      ExpectSelectedMatches<T>(block, SortedSelection(prng, n, density));
    }
    std::vector<uint32_t> unsorted(n);
    for (uint32_t& r : unsorted) {
      r = static_cast<uint32_t>(prng->NextBounded(n));
    }
    unsorted.back() = static_cast<uint32_t>(n - 1);
    ExpectSelectedMatches<T>(block, unsorted);
  }
}

TEST(DecodeReferenceTest, KernelMatchesExtractBitsAtEveryWidth) {
  Prng prng(23);
  for (uint32_t bits = 0; bits <= 64; ++bits) {
    for (const int64_t base :
         {int64_t{0}, int64_t{-1}, int64_t{-123'456'789}, int64_t{987'654},
          kInt64Min, kInt64Max}) {
      CheckKernelAtWidth<int32_t>(&prng, bits, base);
      CheckKernelAtWidth<int64_t>(&prng, bits, base);
    }
  }
}

// --- ScanBlock / GatherRows against the replaced grouping ----------------

/// The selected-row decode before rows were grouped by block bounds: one
/// BlockIndexOf per element to find each group, the packed word index
/// computed per piece, and the same booking calls in the same order.
void ReferenceDecodeRows(Pmu* pmu, const EncodedColumn& col, size_t base_row,
                         const uint32_t* rows, size_t count) {
  const uint32_t width = static_cast<uint32_t>(col.value_width());
  size_t j = 0;
  while (j < count) {
    const size_t b = col.BlockIndexOf(base_row + rows[j]);
    const EncodedBlock& block = col.block(b);
    size_t k = j + 1;
    while (k < count && col.BlockIndexOf(base_row + rows[k]) == b) ++k;
    std::vector<uint32_t> local(k - j);
    for (size_t i = j; i < k; ++i) {
      local[i - j] =
          static_cast<uint32_t>(base_row + rows[i] - block.row_begin);
    }
    std::vector<uint32_t> index(local.size());
    switch (block.encoding) {
      case BlockEncoding::kPlain:
        pmu->OnGatherLoads(block.plain.data(), width, local.data(),
                           local.size());
        break;
      case BlockEncoding::kDictionary:
        pmu->OnGatherLoads(block.codes.data(), block.code_width, local.data(),
                           local.size());
        for (size_t i = 0; i < local.size(); ++i) {
          index[i] = ReadCode(block.codes.data(), block.code_width, local[i]);
        }
        pmu->OnGatherLoads(block.dict.data(), width, index.data(),
                           index.size());
        pmu->OnInstructions(
            static_cast<uint64_t>(StorageCostModel::kDictDecodeInstructions) *
            local.size());
        break;
      case BlockEncoding::kBitPacked:
        if (block.bit_width > 0) {
          for (size_t i = 0; i < local.size(); ++i) {
            index[i] = static_cast<uint32_t>(static_cast<size_t>(local[i]) *
                                             block.bit_width / 64);
          }
          pmu->OnGatherLoads(block.words.data(), sizeof(uint64_t),
                             index.data(), index.size());
        }
        pmu->OnInstructions(
            static_cast<uint64_t>(StorageCostModel::kPackDecodeInstructions) *
            local.size());
        break;
    }
    j = k;
  }
}

/// Bit widths of MixedColumn's bit-packed blocks, per value type: small,
/// word-straddling and one below the type's width.
template <typename T>
constexpr uint32_t kMixedWidths[] = {7, 13, sizeof(T) * 8 - 3};

/// A column of six full storage blocks and a partial seventh. Block b's
/// shape is b % 6: all equal (bit width 0), three distinct values far
/// apart (dictionary), random over the whole type (plain), or random over
/// one of kMixedWidths bits from a negative or minimal frame
/// (bit-packed).
template <typename T>
std::unique_ptr<EncodedColumn> MixedColumn(size_t rows) {
  Prng prng(sizeof(T));
  std::vector<T> values(rows);
  const uint32_t max_bits = sizeof(T) * 8;
  for (size_t r = 0; r < rows; ++r) {
    const size_t b = EncodedColumn::BlockIndexOf(r);
    uint64_t offset = 0;
    int64_t base = static_cast<int64_t>(std::numeric_limits<T>::min());
    switch (b % 6) {
      case 0:  // all equal
        break;
      case 1:  // dictionary
        offset = prng.NextBounded(3) << (max_bits - 3);
        break;
      case 2:  // plain
        offset = prng.Next() >> (64 - max_bits);
        break;
      default: {  // bit-packed
        const uint32_t bits = kMixedWidths<T>[b % 6 - 3];
        offset = prng.Next() >> (64 - bits);
        if (b % 2 == 0) base = -static_cast<int64_t>(b * 1000);
        break;
      }
    }
    values[r] = static_cast<T>(static_cast<int64_t>(
        static_cast<uint64_t>(base) + offset));
  }
  Column<T> plain("c", std::move(values));
  auto encoded = EncodedColumn::Encode(plain);
  NIPO_CHECK(encoded.ok());
  return std::move(encoded.ValueOrDie());
}

template <typename T>
void CheckColumnView() {
  constexpr size_t kRows = 6 * kBlockValues + 3000;
  const std::unique_ptr<EncodedColumn> col = MixedColumn<T>(kRows);
  ASSERT_EQ(col->num_blocks(), 7u);
  bool saw[3] = {false, false, false};
  for (size_t b = 0; b < col->num_blocks(); ++b) {
    saw[static_cast<int>(col->block(b).encoding)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(BlockEncoding::kPlain)]);
  EXPECT_TRUE(saw[static_cast<int>(BlockEncoding::kDictionary)]);
  EXPECT_TRUE(saw[static_cast<int>(BlockEncoding::kBitPacked)]);
  const ColumnView view = ColumnView::Bind(col.get()).ValueOrDie();
  Prng prng(sizeof(T));

  auto expect_values = [&](const ScanRun& run, size_t base_row,
                           const uint32_t* rows, size_t count) {
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(ScanRunValueAsInt64(run, j),
                col->ValueAsInt64(base_row + rows[j]))
          << "row " << base_row + rows[j];
    }
  };

  // ScanBlock under a selection, at offsets off the 1,024-row grid, most
  // of them straddling two storage blocks.
  constexpr size_t kB = kBlockValues;
  for (const size_t begin :
       {size_t{0}, size_t{37}, kB - 1, kB - 300, 2 * kB - 1000, 3 * kB - 17,
        4 * kB - 512, 5 * kB - 999, 6 * kB - 1, kRows - 700}) {
    const size_t span = std::min<size_t>(1024, kRows - begin);
    {
      Pmu pmu;
      DecodeScratch scratch;
      const ScanRun run = view.ScanBlock(&pmu, begin, nullptr, span, &scratch);
      const std::vector<uint32_t> all = SortedSelection(&prng, span, 1.0);
      expect_values(run, begin, all.data(), all.size());
    }
    for (const double density : {0.01, 0.4, 1.0}) {
      const std::vector<uint32_t> sel = SortedSelection(&prng, span, density);
      Pmu pmu, ref_pmu;
      DecodeScratch scratch;
      const ScanRun run =
          view.ScanBlock(&pmu, begin, sel.data(), sel.size(), &scratch);
      ReferenceDecodeRows(&ref_pmu, *col, begin, sel.data(), sel.size());
      expect_values(run, begin, sel.data(), sel.size());
      EXPECT_EQ(pmu.Read(), ref_pmu.Read())
          << "ScanBlock begin " << begin << " density " << density;
    }
  }

  // GatherRows: FK-probe rows in random order, and sorted runs.
  std::vector<uint32_t> probes(900);
  for (uint32_t& r : probes) {
    r = static_cast<uint32_t>(prng.NextBounded(kRows));
  }
  std::vector<uint32_t> sorted = probes;
  std::sort(sorted.begin(), sorted.end());
  for (const std::vector<uint32_t>* rows : {&probes, &sorted}) {
    Pmu pmu, ref_pmu;
    DecodeScratch scratch;
    const ScanRun run =
        view.GatherRows(&pmu, rows->data(), rows->size(), &scratch);
    ReferenceDecodeRows(&ref_pmu, *col, 0, rows->data(), rows->size());
    expect_values(run, 0, rows->data(), rows->size());
    EXPECT_EQ(pmu.Read(), ref_pmu.Read()) << "GatherRows";
  }
}

TEST(DecodeReferenceTest, ScanBlockAndGatherRowsMatchOldGrouping) {
  CheckColumnView<int32_t>();
  CheckColumnView<int64_t>();
}

}  // namespace
}  // namespace nipo
