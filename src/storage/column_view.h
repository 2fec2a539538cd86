#pragma once

#include <cstdint>
#include <vector>

#include "common/compare.h"
#include "common/result.h"
#include "hw/pmu.h"
#include "storage/encoding.h"

/// \file column_view.h
/// The zero-copy scan API the executors iterate (DESIGN.md Section 10).
///
/// A ColumnView binds one column -- plain or encoded -- and hands the
/// block loops a ScanRun: a typed pointer plus addressing rule that the
/// SIMD kernels consume directly. For plain columns the run aliases the
/// column's own array (zero copy, and the PMU booking is byte-identical
/// to the historical raw-pointer path). For encoded columns the view
/// decodes the touched rows into caller-owned scratch, booking loads for
/// the *encoded* bytes actually read (codes at their code width, packed
/// words, the dictionary gather) plus the decode instructions of
/// StorageCostModel -- so compression shows up in the simulated L1/LLC
/// counters exactly as narrower data would.
///
/// Zone maps ride along: ZoneRefutesRange lets an executor prove a whole
/// block of rows dead against a predicate before any per-tuple work.

namespace nipo {

/// \brief A typed run of scannable values: element `j` lives at row
/// `base_row + (gather ? gather[j] : j)` of the array at `data`. This is
/// exactly the addressing contract of simd::CompareSelect, so a run's
/// fields feed the kernel without translation.
struct ScanRun {
  const uint8_t* data = nullptr;
  uint32_t width = 0;
  DataType type = DataType::kInt32;
  size_t base_row = 0;
  const uint32_t* gather = nullptr;
};

/// \brief Reads element `j` of a run as double (unbooked; reference
/// paths and scalar consumers).
inline double ScanRunValueAsDouble(const ScanRun& run, size_t j) {
  const size_t row = run.base_row + (run.gather ? run.gather[j] : j);
  const uint8_t* addr = run.data + static_cast<uint64_t>(row) * run.width;
  switch (run.type) {
    case DataType::kInt32:
      return static_cast<double>(*reinterpret_cast<const int32_t*>(addr));
    case DataType::kInt64:
      return static_cast<double>(*reinterpret_cast<const int64_t*>(addr));
    case DataType::kDouble:
      return *reinterpret_cast<const double*>(addr);
  }
  return 0.0;
}

/// \brief Reads element `j` of a run as int64 (unbooked).
inline int64_t ScanRunValueAsInt64(const ScanRun& run, size_t j) {
  const size_t row = run.base_row + (run.gather ? run.gather[j] : j);
  const uint8_t* addr = run.data + static_cast<uint64_t>(row) * run.width;
  switch (run.type) {
    case DataType::kInt32:
      return *reinterpret_cast<const int32_t*>(addr);
    case DataType::kInt64:
      return *reinterpret_cast<const int64_t*>(addr);
    case DataType::kDouble:
      return static_cast<int64_t>(*reinterpret_cast<const double*>(addr));
  }
  return 0;
}

/// \brief Caller-owned decode buffers, reused across blocks. One per
/// (executor, column-use) pair; single-threaded like the executors.
struct DecodeScratch {
  std::vector<uint8_t> values;
  std::vector<uint32_t> index_a;
  std::vector<uint32_t> index_b;
};

/// \brief A bound scan handle over one column, plain or encoded.
///
/// Default-constructed views are unbound placeholders; Bind() attaches a
/// column. Copyable (it holds non-owning pointers): executors keep one
/// per compiled operator and carry them through reorders.
class ColumnView {
 public:
  ColumnView() = default;

  /// Binds `column`, detecting encoded columns by type.
  static Result<ColumnView> Bind(const ColumnBase* column);

  bool bound() const { return column_ != nullptr; }
  DataType type() const { return type_; }
  size_t size() const { return size_; }
  uint32_t value_width() const { return width_; }
  bool encoded() const { return encoded_ != nullptr; }
  bool has_zone_maps() const {
    return encoded_ != nullptr && encoded_->num_blocks() > 0;
  }
  const std::string& name() const { return column_->name(); }

  /// Average encoded bytes a scan touches per value (== value_width()
  /// for plain columns) -- the cost model's replacement for the native
  /// width on compressed inputs.
  double scan_bytes_per_value() const {
    return encoded_ != nullptr ? encoded_->scan_bytes_per_value()
                               : static_cast<double>(width_);
  }

  /// Average per-value decode instructions (0 for plain columns).
  double decode_instructions_per_value() const {
    return encoded_ != nullptr ? encoded_->decode_instructions_per_value()
                               : 0.0;
  }

  /// True iff the zone maps prove no row of [row_begin, row_begin+count)
  /// can satisfy `op value`. A range straddling several storage blocks
  /// is refuted only if every overlapped block refutes. Always false for
  /// plain columns (no zone maps -- and so no behavior change).
  bool ZoneRefutesRange(size_t row_begin, size_t count, CompareOp op,
                        double value) const;

  /// Number of zone maps a ZoneRefutesRange over this range consults
  /// (0 for plain columns); the executor books the check instructions.
  size_t ZoneChecksForRange(size_t row_begin, size_t count) const;

  /// Fraction of rows living in blocks whose zone map refutes
  /// `op value` -- the optimizer's skip-potential signal. 0 for plain.
  double ZonePrunableFraction(CompareOp op, double value) const;

  /// Produces the run for elements j = 0..active-1 at rows
  /// `block_begin + (sel ? sel[j] : j)`, booking the loads on `pmu`.
  ///
  /// Plain columns return the underlying array directly (sequential-run
  /// booking while dense, gather booking under a selection -- exactly
  /// the historical raw path). Encoded columns decode the touched rows
  /// into `scratch` and return a dense run over it; the returned run
  /// then has gather == nullptr while row identity stays with the
  /// caller's `sel`.
  ScanRun ScanBlock(Pmu* pmu, size_t block_begin, const uint32_t* sel,
                    size_t active, DecodeScratch* scratch) const;

  /// Produces the run for elements j = 0..count-1 at absolute rows
  /// `rows[j]` (the FK-probe dimension gather), booking on `pmu`. Plain
  /// columns return {data, ..., base_row=0, gather=rows} -- the
  /// historical probe booking; encoded columns decode into `scratch`.
  ScanRun GatherRows(Pmu* pmu, const uint32_t* rows, size_t count,
                     DecodeScratch* scratch) const;

  /// Unbooked single-value access (reference computations, tests).
  double ValueAsDouble(size_t row) const;
  int64_t ValueAsInt64(size_t row) const;

 private:
  /// Decodes one dense piece of a storage block into scratch->values at
  /// element position out_begin, booking the encoded loads.
  void DecodeDensePiece(Pmu* pmu, const EncodedBlock& block,
                        size_t local_begin, size_t count,
                        DecodeScratch* scratch, size_t out_begin) const;

  /// Decodes block-relative rows `local_rows[0..count)` into
  /// scratch->values at element position out_begin, booking gathers.
  void DecodeGatherPiece(Pmu* pmu, const EncodedBlock& block,
                         const uint32_t* local_rows, size_t count,
                         DecodeScratch* scratch, size_t out_begin) const;

  void CopyDictValues(const EncodedBlock& block, const uint32_t* codes,
                      size_t count, uint8_t* out) const;
  void UnpackValues(const EncodedBlock& block, size_t local_begin,
                    const uint32_t* local_rows, size_t count,
                    uint8_t* out) const;

  const ColumnBase* column_ = nullptr;
  const EncodedColumn* encoded_ = nullptr;  // null when plain
  const uint8_t* plain_data_ = nullptr;     // null when encoded
  uint32_t width_ = 0;
  DataType type_ = DataType::kInt32;
  size_t size_ = 0;
};

}  // namespace nipo
