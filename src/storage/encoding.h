#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/compare.h"
#include "common/result.h"
#include "storage/column.h"

/// \file encoding.h
/// Compressed columnar storage (DESIGN.md Section 10).
///
/// An EncodedColumn splits a column into fixed-size blocks (64K values by
/// default) and stores each block in the cheapest of three physical
/// encodings: a per-block sorted **dictionary** with narrow codes, a
/// frame-of-reference **bit-packing** for integers, or a **plain** copy
/// when neither wins. Every block additionally carries a min/max **zone
/// map** so scans can refute whole blocks against a predicate before any
/// per-tuple work.
///
/// The encodings are chosen per block by byte size, deterministically, so
/// identical inputs always produce identical physical layouts (the repo's
/// bit-equality gates depend on this). Executors never touch these
/// structures directly: they scan through storage/column_view.h, which
/// books the *encoded* bytes actually loaded on the simulated machine --
/// compression is therefore visible in the L1/LLC counters, exactly like
/// a narrower plain column would be.
///
/// Zone-map semantics match execution semantics: the SIMD selection
/// kernel compares every type in the double domain (exec/simd.cc converts
/// int64 via Int64ToDouble), so zone min/max are computed over the
/// double-cast values and refutation with ZoneRefutes() can never
/// disagree with a full scan. NaN is tracked separately: a NaN value
/// fails every comparison except kNe, so a block containing NaN is never
/// refuted for kNe.

namespace nipo {

/// Per-block physical encoding chosen by EncodedColumn::Encode.
enum class BlockEncoding : int { kPlain, kDictionary, kBitPacked };

/// \brief Knobs of EncodedColumn::Encode. Defaults match the benches.
struct EncodingOptions {
  /// Values per storage block (and zone-map granularity).
  size_t block_values = 65536;
};

/// \brief Min/max statistics of one block, in the double domain the
/// selection kernels compare in. min/max are over non-NaN values only; a
/// block of only NaNs keeps the empty sentinel (min > max).
struct ZoneMapEntry {
  size_t row_begin = 0;
  size_t row_count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  bool has_nan = false;
};

/// \brief True iff `zone` proves that no row of its block can satisfy
/// `op value` -- the block may then be skipped without changing results.
/// Conservative under NaN (a NaN value passes only kNe, a NaN constant
/// never refutes).
bool ZoneRefutes(const ZoneMapEntry& zone, CompareOp op, double value);

/// \brief Reads value `index` of a `bits`-wide little-endian packed
/// stream. `bits` must be in [1, 64]; values may straddle two words.
inline uint64_t ExtractBits(const uint64_t* words, size_t index,
                            uint32_t bits) {
  const uint64_t bit_pos = static_cast<uint64_t>(index) * bits;
  const size_t word = static_cast<size_t>(bit_pos >> 6);
  const uint32_t off = static_cast<uint32_t>(bit_pos & 63);
  uint64_t v = words[word] >> off;
  if (off + bits > 64) v |= words[word + 1] << (64 - off);
  if (bits < 64) v &= (uint64_t{1} << bits) - 1;
  return v;
}

/// \brief Reads code `index` of a dictionary block's code stream:
/// `code_width`-byte little-endian codes, 1 or 2 bytes (a block
/// dictionary holds at most 4096 values).
inline uint32_t ReadCode(const uint8_t* codes, uint32_t code_width,
                         size_t index) {
  const uint8_t* p = codes + static_cast<uint64_t>(index) * code_width;
  if (code_width == 1) return *p;
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

/// \brief One encoded block. Exactly one payload is populated, selected
/// by `encoding`.
struct EncodedBlock {
  BlockEncoding encoding = BlockEncoding::kPlain;
  size_t row_begin = 0;
  size_t row_count = 0;

  /// kPlain: row_count native-width values.
  std::vector<uint8_t> plain;

  /// kDictionary: row_count codes of code_width bytes (1 or 2,
  /// little-endian; see ReadCode) indexing a deterministic sorted
  /// dictionary of dict_size native-width values.
  std::vector<uint8_t> codes;
  uint32_t code_width = 0;
  std::vector<uint8_t> dict;
  size_t dict_size = 0;

  /// kBitPacked (integer columns): frame-of-reference offsets from
  /// frame_base at bit_width bits each, packed into 64-bit words.
  /// bit_width 0 means every value equals frame_base (no words at all).
  std::vector<uint64_t> words;
  uint32_t bit_width = 0;
  int64_t frame_base = 0;

  /// Bytes of the scan payload (codes / words / plain values; the
  /// dictionary counts too -- it is data a scan must touch).
  size_t encoded_bytes() const;
};

/// \brief A column stored in per-block compressed form with zone maps.
///
/// EncodedColumn is a ColumnBase, so it registers in a Table like any
/// plain column; executors that go through ColumnView (they all do, see
/// the lint step in ci/check.sh) decode transparently. data() exposes the
/// first block's payload for address-based identity only -- nothing may
/// scan through it.
class EncodedColumn : public ColumnBase {
 public:
  /// Encodes `source` (a plain column) block by block. The choice per
  /// block is by encoded byte size: dictionary when the block has few
  /// distinct values, frame-of-reference bit-packing for integers,
  /// otherwise a plain copy. The packing is priced first; distinct
  /// values are counted only while a dictionary could still be the
  /// smallest (DESIGN.md Section 10).
  static Result<std::unique_ptr<EncodedColumn>> Encode(
      const ColumnBase& source, const EncodingOptions& options = {});

  size_t size() const override { return num_values_; }
  const void* data() const override;

  size_t block_values() const { return block_values_; }
  size_t num_blocks() const { return blocks_.size(); }
  const EncodedBlock& block(size_t i) const { return blocks_[i]; }
  const ZoneMapEntry& zone(size_t i) const { return zones_[i]; }

  /// Index of the block containing `row`.
  size_t BlockIndexOf(size_t row) const { return row / block_values_; }

  /// Total scan-payload bytes across blocks (dictionaries included).
  size_t total_encoded_bytes() const { return total_encoded_bytes_; }

  /// Average encoded bytes a full scan touches per value -- what the
  /// cost model prices instead of value_width() for encoded columns.
  double scan_bytes_per_value() const {
    return num_values_ == 0 ? static_cast<double>(value_width())
                            : static_cast<double>(total_encoded_bytes_) /
                                  static_cast<double>(num_values_);
  }

  /// Average per-value decode instructions across blocks (0 for an
  /// all-plain column), from StorageCostModel.
  double decode_instructions_per_value() const {
    return decode_instructions_per_value_;
  }

  /// Decodes rows [row_begin, row_begin + count) into `out` (native
  /// width). Unbooked -- the scan-path booking lives in ColumnView.
  void DecodeRange(size_t row_begin, size_t count, void* out) const;

  /// Single-value random access, unbooked (reference checks and tests).
  double ValueAsDouble(size_t row) const;
  int64_t ValueAsInt64(size_t row) const;

 private:
  EncodedColumn(std::string name, DataType type)
      : ColumnBase(std::move(name), type) {}

  size_t num_values_ = 0;
  size_t block_values_ = 0;
  size_t total_encoded_bytes_ = 0;
  double decode_instructions_per_value_ = 0.0;
  std::vector<EncodedBlock> blocks_;
  std::vector<ZoneMapEntry> zones_;
};

/// \brief Instruction costs of decoding, booked by ColumnView per decoded
/// value (and per zone check); priced by cost/counter_model through the
/// executor's column stats.
struct StorageCostModel {
  /// Dictionary decode: code load is booked as a real load; this is the
  /// index arithmetic per value.
  static constexpr double kDictDecodeInstructions = 1.0;
  /// Bit-pack decode: shift/mask/add per value.
  static constexpr double kPackDecodeInstructions = 2.0;
  /// Zone-map check: one min and one max compare per consulted block.
  static constexpr double kZoneCheckInstructions = 2.0;
};

/// \brief Result of encoding a table in place (EncodeTableColumns).
struct TableEncodingStats {
  size_t columns_encoded = 0;
  size_t plain_bytes = 0;
  size_t encoded_bytes = 0;
};

/// \brief Replaces every plain column of `table` with its encoded form
/// (columns already encoded are left alone). Returns size stats.
class Table;  // storage/table.h
Result<TableEncodingStats> EncodeTableColumns(
    Table* table, const EncodingOptions& options = {});

}  // namespace nipo
