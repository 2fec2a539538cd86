#include "storage/column_view.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

/// \file column_view.cc
/// The booked scan paths. Plain columns alias their array and book the
/// same sequential/gather runs the executors historically booked against
/// raw pointers -- bit-identity of the encodings-off mode rests on these
/// two branches. Encoded columns decode the touched rows per overlapped
/// storage block (a kSimBlockRows execution block can straddle two
/// storage blocks, and morsels start at arbitrary offsets), booking loads
/// for the encoded payload actually read.

namespace nipo {

Result<ColumnView> ColumnView::Bind(const ColumnBase* column) {
  if (column == nullptr) return Status::InvalidArgument("null column");
  ColumnView view;
  view.column_ = column;
  view.width_ = static_cast<uint32_t>(column->value_width());
  view.type_ = column->type();
  view.size_ = column->size();
  view.encoded_ = dynamic_cast<const EncodedColumn*>(column);
  if (view.encoded_ == nullptr) {
    view.plain_data_ = static_cast<const uint8_t*>(column->data());
  }
  return view;
}

bool ColumnView::ZoneRefutesRange(size_t row_begin, size_t count,
                                  CompareOp op, double value) const {
  if (encoded_ == nullptr || count == 0) return false;
  const size_t first = encoded_->BlockIndexOf(row_begin);
  const size_t last = encoded_->BlockIndexOf(row_begin + count - 1);
  for (size_t b = first; b <= last; ++b) {
    if (!ZoneRefutes(encoded_->zone(b), op, value)) return false;
  }
  return true;
}

size_t ColumnView::ZoneChecksForRange(size_t row_begin, size_t count) const {
  if (encoded_ == nullptr || count == 0) return 0;
  const size_t first = encoded_->BlockIndexOf(row_begin);
  const size_t last = encoded_->BlockIndexOf(row_begin + count - 1);
  return last - first + 1;
}

double ColumnView::ZonePrunableFraction(CompareOp op, double value) const {
  if (encoded_ == nullptr || size_ == 0) return 0.0;
  size_t prunable = 0;
  for (size_t b = 0; b < encoded_->num_blocks(); ++b) {
    const ZoneMapEntry& zone = encoded_->zone(b);
    if (ZoneRefutes(zone, op, value)) prunable += zone.row_count;
  }
  return static_cast<double>(prunable) / static_cast<double>(size_);
}

ScanRun ColumnView::ScanBlock(Pmu* pmu, size_t block_begin,
                              const uint32_t* sel, size_t active,
                              DecodeScratch* scratch) const {
  NIPO_CHECK(pmu != nullptr && bound());
  if (encoded_ == nullptr) {
    // Plain: zero copy, historical booking (stride-1 run while dense,
    // gather under a selection).
    const uint8_t* block_base =
        plain_data_ + static_cast<uint64_t>(block_begin) * width_;
    if (sel == nullptr) {
      pmu->OnSequentialLoads(block_base, width_, active);
      return ScanRun{plain_data_, width_, type_, block_begin, nullptr};
    }
    pmu->OnGatherLoads(block_base, width_, sel, active);
    return ScanRun{plain_data_, width_, type_, block_begin, sel};
  }

  if (active == 0) {
    return ScanRun{scratch->values.data(), width_, type_, 0, nullptr};
  }

  if (sel == nullptr) {
    // Dense range. Fast path: entirely inside one plain-encoded storage
    // block -> alias the block payload, zero copy.
    const size_t first = encoded_->BlockIndexOf(block_begin);
    const size_t last = encoded_->BlockIndexOf(block_begin + active - 1);
    if (first == last &&
        encoded_->block(first).encoding == BlockEncoding::kPlain) {
      const EncodedBlock& block = encoded_->block(first);
      const uint8_t* base =
          block.plain.data() +
          (block_begin - block.row_begin) * static_cast<size_t>(width_);
      pmu->OnSequentialLoads(base, width_, active);
      return ScanRun{base, width_, type_, 0, nullptr};
    }
    scratch->values.resize(active * static_cast<size_t>(width_));
    size_t out = 0;
    size_t row = block_begin;
    size_t remaining = active;
    while (remaining > 0) {
      const EncodedBlock& block = encoded_->block(encoded_->BlockIndexOf(row));
      const size_t local = row - block.row_begin;
      const size_t take = std::min(remaining, block.row_count - local);
      DecodeDensePiece(pmu, block, local, take, scratch, out);
      out += take;
      row += take;
      remaining -= take;
    }
    return ScanRun{scratch->values.data(), width_, type_, 0, nullptr};
  }

  return DecodeRows(pmu, block_begin, sel, active, scratch);
}

ScanRun ColumnView::GatherRows(Pmu* pmu, const uint32_t* rows, size_t count,
                               DecodeScratch* scratch) const {
  NIPO_CHECK(pmu != nullptr && bound());
  if (encoded_ == nullptr) {
    // Plain: the historical dimension-probe gather booking.
    pmu->OnGatherLoads(plain_data_, width_, rows, count);
    return ScanRun{plain_data_, width_, type_, 0, rows};
  }
  return DecodeRows(pmu, 0, rows, count, scratch);
}

ScanRun ColumnView::DecodeRows(Pmu* pmu, size_t base_row,
                               const uint32_t* rows, size_t count,
                               DecodeScratch* scratch) const {
  // Groups maximal runs of rows in one storage block. Each row is rebased
  // to the group's block with one add; a row outside the block wraps to at
  // least row_count, so one compare ends the group on either side. The
  // same pass computes the packed word each element reads, which the
  // gather booking needs.
  scratch->values.resize(count * static_cast<size_t>(width_));
  scratch->index_a.resize(count);
  scratch->index_b.resize(count);
  uint32_t* local_rows = scratch->index_a.data();
  uint32_t* aux = scratch->index_b.data();
  size_t j = 0;
  while (j < count) {
    const EncodedBlock& block =
        encoded_->block(encoded_->BlockIndexOf(base_row + rows[j]));
    const size_t rebase = base_row - block.row_begin;
    const size_t bits = block.encoding == BlockEncoding::kBitPacked
                            ? block.bit_width
                            : 0;
    size_t k = j;
    for (; k < count; ++k) {
      const size_t local = rows[k] + rebase;
      if (local >= block.row_count) break;
      local_rows[k] = static_cast<uint32_t>(local);
      aux[k] = static_cast<uint32_t>(local * bits / 64);
    }
    DecodeGatherPiece(pmu, block, local_rows + j, aux + j, k - j, scratch, j);
    j = k;
  }
  return ScanRun{scratch->values.data(), width_, type_, 0, nullptr};
}

void ColumnView::DecodeDensePiece(Pmu* pmu, const EncodedBlock& block,
                                  size_t local_begin, size_t count,
                                  DecodeScratch* scratch,
                                  size_t out_begin) const {
  uint8_t* out =
      scratch->values.data() + out_begin * static_cast<size_t>(width_);
  switch (block.encoding) {
    case BlockEncoding::kPlain: {
      pmu->OnSequentialLoads(
          block.plain.data() + local_begin * static_cast<size_t>(width_),
          width_, count);
      std::memcpy(out,
                  block.plain.data() +
                      local_begin * static_cast<size_t>(width_),
                  count * static_cast<size_t>(width_));
      return;
    }
    case BlockEncoding::kDictionary: {
      // Codes are read as a stride-1 run of code_width-byte values; the
      // dictionary lookups are a gather over the (tiny, cache-resident)
      // dictionary array.
      pmu->OnSequentialLoads(
          block.codes.data() +
              local_begin * static_cast<size_t>(block.code_width),
          block.code_width, count);
      scratch->index_b.resize(count);
      for (size_t i = 0; i < count; ++i) {
        scratch->index_b[i] =
            ReadCode(block.codes.data(), block.code_width, local_begin + i);
      }
      pmu->OnGatherLoads(block.dict.data(), width_, scratch->index_b.data(),
                         count);
      pmu->OnInstructions(
          static_cast<uint64_t>(StorageCostModel::kDictDecodeInstructions) *
          count);
      CopyDictValues(block, scratch->index_b.data(), count, out);
      return;
    }
    case BlockEncoding::kBitPacked: {
      if (block.bit_width > 0) {
        const size_t first_word =
            local_begin * static_cast<size_t>(block.bit_width) / 64;
        const size_t last_word =
            ((local_begin + count) * static_cast<size_t>(block.bit_width) -
             1) /
            64;
        pmu->OnSequentialLoads(block.words.data() + first_word,
                               sizeof(uint64_t), last_word - first_word + 1);
      }
      pmu->OnInstructions(
          static_cast<uint64_t>(StorageCostModel::kPackDecodeInstructions) *
          count);
      UnpackValues(block, local_begin, nullptr, count, out);
      return;
    }
  }
}

void ColumnView::DecodeGatherPiece(Pmu* pmu, const EncodedBlock& block,
                                   const uint32_t* local_rows, uint32_t* aux,
                                   size_t count, DecodeScratch* scratch,
                                   size_t out_begin) const {
  uint8_t* out =
      scratch->values.data() + out_begin * static_cast<size_t>(width_);
  switch (block.encoding) {
    case BlockEncoding::kPlain: {
      pmu->OnGatherLoads(block.plain.data(), width_, local_rows, count);
      for (size_t i = 0; i < count; ++i) {
        std::memcpy(out + i * static_cast<size_t>(width_),
                    block.plain.data() +
                        static_cast<size_t>(local_rows[i]) * width_,
                    width_);
      }
      return;
    }
    case BlockEncoding::kDictionary: {
      pmu->OnGatherLoads(block.codes.data(), block.code_width, local_rows,
                         count);
      for (size_t i = 0; i < count; ++i) {
        aux[i] = ReadCode(block.codes.data(), block.code_width, local_rows[i]);
      }
      pmu->OnGatherLoads(block.dict.data(), width_, aux, count);
      pmu->OnInstructions(
          static_cast<uint64_t>(StorageCostModel::kDictDecodeInstructions) *
          count);
      CopyDictValues(block, aux, count, out);
      return;
    }
    case BlockEncoding::kBitPacked: {
      if (block.bit_width > 0) {
        pmu->OnGatherLoads(block.words.data(), sizeof(uint64_t), aux, count);
      }
      pmu->OnInstructions(
          static_cast<uint64_t>(StorageCostModel::kPackDecodeInstructions) *
          count);
      UnpackValues(block, 0, local_rows, count, out);
      return;
    }
  }
}

void ColumnView::CopyDictValues(const EncodedBlock& block,
                                const uint32_t* codes, size_t count,
                                uint8_t* out) const {
  const size_t w = width_;
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(out + i * w,
                block.dict.data() + static_cast<size_t>(codes[i]) * w, w);
  }
}

void ColumnView::UnpackValues(const EncodedBlock& block, size_t local_begin,
                              const uint32_t* local_rows, size_t count,
                              uint8_t* out) const {
  if (type_ == DataType::kInt32) {
    UnpackBits(block, local_begin, local_rows, count,
               reinterpret_cast<int32_t*>(out));
  } else {
    UnpackBits(block, local_begin, local_rows, count,
               reinterpret_cast<int64_t*>(out));
  }
}

double ColumnView::ValueAsDouble(size_t row) const {
  if (encoded_ != nullptr) return encoded_->ValueAsDouble(row);
  const uint8_t* addr = plain_data_ + static_cast<uint64_t>(row) * width_;
  switch (type_) {
    case DataType::kInt32:
      return static_cast<double>(*reinterpret_cast<const int32_t*>(addr));
    case DataType::kInt64:
      return static_cast<double>(*reinterpret_cast<const int64_t*>(addr));
    case DataType::kDouble:
      return *reinterpret_cast<const double*>(addr);
  }
  return 0.0;
}

int64_t ColumnView::ValueAsInt64(size_t row) const {
  if (encoded_ != nullptr) return encoded_->ValueAsInt64(row);
  const uint8_t* addr = plain_data_ + static_cast<uint64_t>(row) * width_;
  switch (type_) {
    case DataType::kInt32:
      return *reinterpret_cast<const int32_t*>(addr);
    case DataType::kInt64:
      return *reinterpret_cast<const int64_t*>(addr);
    case DataType::kDouble:
      return static_cast<int64_t>(*reinterpret_cast<const double*>(addr));
  }
  return 0;
}

}  // namespace nipo
