#include "storage/encoding.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/logging.h"
#include "storage/table.h"

/// \file encoding.cc
/// Per-block encoding selection and the decode paths. Everything here is
/// deterministic: dictionaries are sorted by value bit pattern (total
/// order even for NaN doubles), encodings are chosen by strict byte-size
/// comparison, and decode is bit-exact for every type -- the repo's
/// bit-equality gates rely on encode(decode(x)) == x at the uint64 level.

namespace nipo {

namespace {

/// A block dictionary larger than this falls through to bit-packing or
/// plain storage (keeps the per-block decode table cache-resident).
constexpr size_t kMaxDictionaryValues = 4096;

/// Total-order bit pattern of a value: the dictionary sort key. Using the
/// raw pattern (not operator<) keeps NaN and -0.0 doubles deterministic
/// and round-trip exact.
inline uint64_t PatternOf(int32_t v) {
  return static_cast<uint64_t>(static_cast<uint32_t>(v));
}
inline uint64_t PatternOf(int64_t v) { return static_cast<uint64_t>(v); }
inline uint64_t PatternOf(double v) { return std::bit_cast<uint64_t>(v); }

template <typename T>
inline T FromPattern(uint64_t pattern);
template <>
inline int32_t FromPattern<int32_t>(uint64_t pattern) {
  return static_cast<int32_t>(static_cast<uint32_t>(pattern));
}
template <>
inline int64_t FromPattern<int64_t>(uint64_t pattern) {
  return static_cast<int64_t>(pattern);
}
template <>
inline double FromPattern<double>(uint64_t pattern) {
  return std::bit_cast<double>(pattern);
}

template <typename T>
inline double AsDouble(T v) {
  return static_cast<double>(v);
}

uint32_t CodeWidthFor(size_t dict_size) {
  static_assert(kMaxDictionaryValues <= (size_t{1} << 16),
                "dictionary codes are at most 2 bytes wide");
  return dict_size <= (size_t{1} << 8) ? 1 : 2;
}

inline void WriteCode(uint8_t* codes, uint32_t code_width, size_t index,
                      uint32_t code) {
  uint8_t* p = codes + static_cast<uint64_t>(index) * code_width;
  if (code_width == 1) {
    *p = static_cast<uint8_t>(code);
    return;
  }
  const uint16_t v = static_cast<uint16_t>(code);
  std::memcpy(p, &v, 2);
}

/// Bytes of a `distinct`-value dictionary block of `n` values; SIZE_MAX
/// above kMaxDictionaryValues, where no dictionary is built. Monotone in
/// `distinct`, so counting can stop at the first value that makes it lose.
size_t DictionaryBytes(size_t n, size_t distinct, size_t width) {
  if (distinct > kMaxDictionaryValues) return SIZE_MAX;
  return n * CodeWidthFor(distinct) + distinct * width;
}

/// The distinct bit patterns of one block: an open-addressing set of at
/// most kMaxDictionaryValues entries (half-full at most), reused across a
/// column's blocks. It counts the dictionary candidate, then ranks the
/// patterns and hands out each value's code.
class PatternSet {
 public:
  PatternSet() : keys_(kSlots), codes_(kSlots, kEmpty) {}

  /// Inserts the patterns of src[0..n) and returns true, unless a new
  /// distinct pattern makes `fits(distinct)` false: then it stops there
  /// and returns false.
  template <typename T, typename Fits>
  bool Count(const T* src, size_t n, Fits fits) {
    for (const uint32_t slot : used_) codes_[slot] = kEmpty;
    used_.clear();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t pattern = PatternOf(src[i]);
      const uint32_t slot = SlotOf(pattern);
      if (codes_[slot] != kEmpty) continue;
      if (!fits(used_.size() + 1)) return false;
      keys_[slot] = pattern;
      codes_[slot] = 0;
      used_.push_back(slot);
    }
    return true;
  }

  /// Ranks the counted patterns in ascending order: pattern(i) is the
  /// i-th smallest and CodeOf() returns the rank.
  void AssignCodes() {
    std::sort(used_.begin(), used_.end(),
              [this](uint32_t a, uint32_t b) { return keys_[a] < keys_[b]; });
    for (size_t i = 0; i < used_.size(); ++i) {
      codes_[used_[i]] = static_cast<uint16_t>(i);
    }
  }

  size_t size() const { return used_.size(); }
  uint64_t pattern(size_t rank) const { return keys_[used_[rank]]; }
  /// Code of a counted pattern, after AssignCodes().
  uint16_t CodeOf(uint64_t pattern) const { return codes_[SlotOf(pattern)]; }

 private:
  static constexpr int kSlotBits = 13;
  static constexpr uint32_t kSlots = uint32_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxDictionaryValues);
  static constexpr uint16_t kEmpty = 0xFFFF;

  /// The slot holding `pattern`, or the empty slot where it would go
  /// (Fibonacci hashing, linear probing).
  uint32_t SlotOf(uint64_t pattern) const {
    uint32_t slot = static_cast<uint32_t>(
        (pattern * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
    while (codes_[slot] != kEmpty && keys_[slot] != pattern) {
      slot = (slot + 1) & (kSlots - 1);
    }
    return slot;
  }

  std::vector<uint64_t> keys_;
  std::vector<uint16_t> codes_;  // kEmpty marks a free slot
  std::vector<uint32_t> used_;   // occupied slots
};

/// Encodes one block of `n >= 1` values starting at `src`, choosing the
/// smallest representation, and fills the zone map over the double-cast
/// values (the domain the selection kernels compare in).
///
/// Size ties go to the earlier of plain, dictionary, bit-packing: a
/// dictionary must be strictly smaller than plain, a packing strictly
/// smaller than both. The packing is priced first, so distinct values
/// are counted only while a dictionary can still win under those rules.
template <typename T>
void EncodeBlock(const T* src, size_t row_begin, size_t n, PatternSet* set,
                 EncodedBlock* block, ZoneMapEntry* zone) {
  constexpr size_t kWidth = sizeof(T);
  NIPO_DCHECK(n > 0);
  block->row_begin = row_begin;
  block->row_count = n;
  zone->row_begin = row_begin;
  zone->row_count = n;

  // Frame-of-reference bit-packing candidate (integers only). One pass
  // finds the range and the zone map: the int -> double cast is monotone,
  // so the double-domain extremes are the cast integer extremes. The
  // range is computed in uint64 so int64 extremes wrap correctly; a range
  // needing the full native width never beats plain by size.
  uint32_t bit_width = 0;
  int64_t frame_base = 0;
  size_t pack_bytes = 0;
  bool pack_ok = false;
  if constexpr (std::is_integral_v<T>) {
    T lo = src[0];
    T hi = lo;
    for (size_t i = 1; i < n; ++i) {
      lo = std::min(lo, src[i]);
      hi = std::max(hi, src[i]);
    }
    zone->min = AsDouble(lo);
    zone->max = AsDouble(hi);
    const uint64_t range = static_cast<uint64_t>(static_cast<int64_t>(hi)) -
                           static_cast<uint64_t>(static_cast<int64_t>(lo));
    bit_width = static_cast<uint32_t>(std::bit_width(range));
    frame_base = lo;
    pack_bytes = ((n * static_cast<size_t>(bit_width) + 63) / 64) * 8;
    pack_ok = true;
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double d = AsDouble(src[i]);
      if (std::isnan(d)) {
        zone->has_nan = true;
        continue;
      }
      zone->min = std::min(zone->min, d);
      zone->max = std::max(zone->max, d);
    }
  }

  const size_t plain_bytes = n * kWidth;
  const auto dict_fits = [&](size_t distinct) {
    const size_t dict_bytes = DictionaryBytes(n, distinct, kWidth);
    return dict_bytes < plain_bytes && !(pack_ok && pack_bytes < dict_bytes);
  };
  BlockEncoding encoding = BlockEncoding::kPlain;
  if (dict_fits(1) && set->Count(src, n, dict_fits)) {
    encoding = BlockEncoding::kDictionary;
  } else if (pack_ok && pack_bytes < plain_bytes) {
    encoding = BlockEncoding::kBitPacked;
  }

  block->encoding = encoding;
  switch (encoding) {
    case BlockEncoding::kPlain: {
      block->plain.resize(plain_bytes);
      std::memcpy(block->plain.data(), src, plain_bytes);
      return;
    }
    case BlockEncoding::kDictionary: {
      set->AssignCodes();
      block->code_width = CodeWidthFor(set->size());
      block->dict_size = set->size();
      block->dict.resize(set->size() * kWidth);
      for (size_t i = 0; i < set->size(); ++i) {
        const T v = FromPattern<T>(set->pattern(i));
        std::memcpy(block->dict.data() + i * kWidth, &v, kWidth);
      }
      block->codes.resize(n * block->code_width);
      for (size_t i = 0; i < n; ++i) {
        WriteCode(block->codes.data(), block->code_width, i,
                  set->CodeOf(PatternOf(src[i])));
      }
      return;
    }
    case BlockEncoding::kBitPacked: {
      block->bit_width = bit_width;
      block->frame_base = frame_base;
      if (bit_width == 0) return;
      // Little-endian bit stream (the layout ExtractBits reads): offsets
      // collect in a register and each word is stored once.
      block->words.resize((n * static_cast<size_t>(bit_width) + 63) / 64);
      uint64_t* out = block->words.data();
      uint64_t acc = 0;
      uint32_t filled = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t offset =
            static_cast<uint64_t>(static_cast<int64_t>(src[i])) -
            static_cast<uint64_t>(frame_base);
        acc |= offset << filled;
        filled += bit_width;
        if (filled >= 64) {
          *out++ = acc;
          filled -= 64;
          acc = filled == 0 ? 0 : offset >> (bit_width - filled);
        }
      }
      if (filled > 0) *out = acc;
      return;
    }
  }
}

template <typename T>
inline T DecodeOne(const EncodedBlock& block, size_t local_row) {
  switch (block.encoding) {
    case BlockEncoding::kPlain: {
      T v;
      std::memcpy(&v, block.plain.data() + local_row * sizeof(T), sizeof(T));
      return v;
    }
    case BlockEncoding::kDictionary: {
      const uint32_t code =
          ReadCode(block.codes.data(), block.code_width, local_row);
      T v;
      std::memcpy(&v, block.dict.data() + code * sizeof(T), sizeof(T));
      return v;
    }
    case BlockEncoding::kBitPacked: {
      uint64_t offset = 0;
      if (block.bit_width > 0) {
        offset = ExtractBits(block.words.data(), local_row, block.bit_width);
      }
      return static_cast<T>(static_cast<int64_t>(
          static_cast<uint64_t>(block.frame_base) + offset));
    }
  }
  return T{};
}

template <typename T>
void DecodeBlockRange(const EncodedBlock& block, size_t local_begin,
                      size_t count, T* out) {
  switch (block.encoding) {
    case BlockEncoding::kPlain:
      std::memcpy(out, block.plain.data() + local_begin * sizeof(T),
                  count * sizeof(T));
      return;
    case BlockEncoding::kDictionary: {
      const T* dict = reinterpret_cast<const T*>(block.dict.data());
      for (size_t i = 0; i < count; ++i) {
        out[i] = dict[ReadCode(block.codes.data(), block.code_width,
                               local_begin + i)];
      }
      return;
    }
    case BlockEncoding::kBitPacked: {
      if (block.bit_width == 0) {
        const T v = static_cast<T>(block.frame_base);
        for (size_t i = 0; i < count; ++i) out[i] = v;
        return;
      }
      for (size_t i = 0; i < count; ++i) {
        const uint64_t offset =
            ExtractBits(block.words.data(), local_begin + i, block.bit_width);
        out[i] = static_cast<T>(static_cast<int64_t>(
            static_cast<uint64_t>(block.frame_base) + offset));
      }
      return;
    }
  }
}

double DecodeInstructionsFor(BlockEncoding encoding) {
  switch (encoding) {
    case BlockEncoding::kPlain:
      return 0.0;
    case BlockEncoding::kDictionary:
      return StorageCostModel::kDictDecodeInstructions;
    case BlockEncoding::kBitPacked:
      return StorageCostModel::kPackDecodeInstructions;
  }
  return 0.0;
}

}  // namespace

bool ZoneRefutes(const ZoneMapEntry& zone, CompareOp op, double value) {
  // NaN values pass only kNe; min/max cover the non-NaN rows. An empty
  // non-NaN set (min > max) refutes every op except kNe-with-NaN-present.
  if (op == CompareOp::kNe) {
    // Every row fails `!= value` only if every row equals `value`.
    return !zone.has_nan && zone.min == zone.max && zone.min == value;
  }
  if (zone.min > zone.max) return true;  // all NaN: all fail non-kNe ops
  switch (op) {
    case CompareOp::kLt:
      return !(zone.min < value);
    case CompareOp::kLe:
      return !(zone.min <= value);
    case CompareOp::kGt:
      return !(zone.max > value);
    case CompareOp::kGe:
      return !(zone.max >= value);
    case CompareOp::kEq:
      return !(zone.min <= value && value <= zone.max);
    case CompareOp::kNe:
      break;  // handled above
  }
  return false;
}

size_t EncodedBlock::encoded_bytes() const {
  switch (encoding) {
    case BlockEncoding::kPlain:
      return plain.size();
    case BlockEncoding::kDictionary:
      return codes.size() + dict.size();
    case BlockEncoding::kBitPacked:
      return words.size() * sizeof(uint64_t);
  }
  return 0;
}

Result<std::unique_ptr<EncodedColumn>> EncodedColumn::Encode(
    const ColumnBase& source, const EncodingOptions& options) {
  if (options.block_values == 0) {
    return Status::InvalidArgument("block_values must be positive");
  }
  if (dynamic_cast<const EncodedColumn*>(&source) != nullptr) {
    return Status::InvalidArgument("column '" + source.name() +
                                   "' is already encoded");
  }
  auto encoded = std::unique_ptr<EncodedColumn>(
      new EncodedColumn(source.name(), source.type()));
  encoded->num_values_ = source.size();
  encoded->block_values_ = options.block_values;
  const size_t n = source.size();
  const size_t num_blocks =
      n == 0 ? 0 : (n + options.block_values - 1) / options.block_values;
  encoded->blocks_.resize(num_blocks);
  encoded->zones_.resize(num_blocks);
  double decode_instructions = 0.0;
  PatternSet patterns;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * options.block_values;
    const size_t count = std::min(options.block_values, n - begin);
    switch (source.type()) {
      case DataType::kInt32:
        EncodeBlock(static_cast<const int32_t*>(source.data()) + begin, begin,
                    count, &patterns, &encoded->blocks_[b],
                    &encoded->zones_[b]);
        break;
      case DataType::kInt64:
        EncodeBlock(static_cast<const int64_t*>(source.data()) + begin, begin,
                    count, &patterns, &encoded->blocks_[b],
                    &encoded->zones_[b]);
        break;
      case DataType::kDouble:
        EncodeBlock(static_cast<const double*>(source.data()) + begin, begin,
                    count, &patterns, &encoded->blocks_[b],
                    &encoded->zones_[b]);
        break;
    }
    encoded->total_encoded_bytes_ += encoded->blocks_[b].encoded_bytes();
    decode_instructions +=
        DecodeInstructionsFor(encoded->blocks_[b].encoding) *
        static_cast<double>(count);
  }
  encoded->decode_instructions_per_value_ =
      n == 0 ? 0.0 : decode_instructions / static_cast<double>(n);
  return encoded;
}

const void* EncodedColumn::data() const {
  if (blocks_.empty()) return nullptr;
  const EncodedBlock& b = blocks_.front();
  switch (b.encoding) {
    case BlockEncoding::kPlain:
      return b.plain.data();
    case BlockEncoding::kDictionary:
      return b.codes.data();
    case BlockEncoding::kBitPacked:
      return b.words.empty() ? nullptr : b.words.data();
  }
  return nullptr;
}

void EncodedColumn::DecodeRange(size_t row_begin, size_t count,
                                void* out) const {
  NIPO_CHECK(row_begin + count <= num_values_);
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t row = row_begin;
  size_t remaining = count;
  while (remaining > 0) {
    const size_t b = BlockIndexOf(row);
    const EncodedBlock& block = blocks_[b];
    const size_t local = row - block.row_begin;
    const size_t take = std::min(remaining, block.row_count - local);
    switch (type()) {
      case DataType::kInt32:
        DecodeBlockRange(block, local, take,
                         reinterpret_cast<int32_t*>(dst));
        break;
      case DataType::kInt64:
        DecodeBlockRange(block, local, take,
                         reinterpret_cast<int64_t*>(dst));
        break;
      case DataType::kDouble:
        DecodeBlockRange(block, local, take, reinterpret_cast<double*>(dst));
        break;
    }
    dst += take * value_width();
    row += take;
    remaining -= take;
  }
}

double EncodedColumn::ValueAsDouble(size_t row) const {
  NIPO_CHECK(row < num_values_);
  const EncodedBlock& block = blocks_[BlockIndexOf(row)];
  const size_t local = row - block.row_begin;
  switch (type()) {
    case DataType::kInt32:
      return static_cast<double>(DecodeOne<int32_t>(block, local));
    case DataType::kInt64:
      return static_cast<double>(DecodeOne<int64_t>(block, local));
    case DataType::kDouble:
      return DecodeOne<double>(block, local);
  }
  return 0.0;
}

int64_t EncodedColumn::ValueAsInt64(size_t row) const {
  NIPO_CHECK(row < num_values_);
  const EncodedBlock& block = blocks_[BlockIndexOf(row)];
  const size_t local = row - block.row_begin;
  switch (type()) {
    case DataType::kInt32:
      return DecodeOne<int32_t>(block, local);
    case DataType::kInt64:
      return DecodeOne<int64_t>(block, local);
    case DataType::kDouble:
      return static_cast<int64_t>(DecodeOne<double>(block, local));
  }
  return 0;
}

Result<TableEncodingStats> EncodeTableColumns(Table* table,
                                              const EncodingOptions& options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  TableEncodingStats stats;
  for (size_t i = 0; i < table->num_columns(); ++i) {
    const ColumnBase* column = table->column(i);
    if (dynamic_cast<const EncodedColumn*>(column) != nullptr) continue;
    NIPO_ASSIGN_OR_RETURN(std::unique_ptr<EncodedColumn> encoded,
                          EncodedColumn::Encode(*column, options));
    stats.plain_bytes += column->size() * column->value_width();
    stats.encoded_bytes += encoded->total_encoded_bytes();
    NIPO_RETURN_NOT_OK(table->ReplaceColumn(std::move(encoded)));
    ++stats.columns_encoded;
  }
  return stats;
}

}  // namespace nipo
