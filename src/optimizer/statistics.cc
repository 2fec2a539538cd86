#include "optimizer/statistics.h"

#include <algorithm>
#include <cmath>

/// \file statistics.cc
/// Column statistics collection (min/max, equi-width histograms, sampled
/// distinct counts) and histogram-based selectivity estimation for the
/// static optimizer, with typed access dispatch over column types; plus
/// the SampleMerger window accumulator used by the parallel progressive
/// coordinator (DESIGN.md "Parallel execution").

namespace nipo {

namespace {

double ValueAt(const ColumnBase& column, size_t row) {
  switch (column.type()) {
    case DataType::kInt32:
      return static_cast<double>(
          (*static_cast<const Column<int32_t>*>(&column))[row]);
    case DataType::kInt64:
      return static_cast<double>(
          (*static_cast<const Column<int64_t>*>(&column))[row]);
    case DataType::kDouble:
      return (*static_cast<const Column<double>*>(&column))[row];
  }
  return 0.0;
}

}  // namespace

Result<ColumnStatistics> ColumnStatistics::Build(const ColumnBase& column) {
  return BuildFromPrefix(column, column.size());
}

Result<ColumnStatistics> ColumnStatistics::BuildFromPrefix(
    const ColumnBase& column, size_t sample_size) {
  const size_t n = std::min(sample_size, column.size());
  if (n == 0) {
    return Status::InvalidArgument("cannot summarize an empty column");
  }
  ColumnStatistics stats;
  stats.min_ = ValueAt(column, 0);
  stats.max_ = stats.min_;
  for (size_t i = 1; i < n; ++i) {
    const double v = ValueAt(column, i);
    stats.min_ = std::min(stats.min_, v);
    stats.max_ = std::max(stats.max_, v);
  }
  stats.buckets_.assign(kHistogramBuckets, 0);
  const double width =
      (stats.max_ - stats.min_) / static_cast<double>(kHistogramBuckets);
  for (size_t i = 0; i < n; ++i) {
    const double v = ValueAt(column, i);
    size_t bucket =
        width > 0
            ? static_cast<size_t>((v - stats.min_) / width)
            : 0;
    bucket = std::min(bucket, kHistogramBuckets - 1);
    ++stats.buckets_[bucket];
  }
  stats.row_count_ = n;
  return stats;
}

double ColumnStatistics::BucketWidth() const {
  return (max_ - min_) / static_cast<double>(buckets_.size());
}

double ColumnStatistics::FractionBelow(double constant) const {
  if (row_count_ == 0) return 0.0;
  if (constant <= min_) return 0.0;
  if (constant > max_) return 1.0;
  const double width = BucketWidth();
  if (width <= 0) {
    // Constant column: everything sits at min_ == max_.
    return constant > min_ ? 1.0 : 0.0;
  }
  const double position = (constant - min_) / width;
  const size_t full_buckets = std::min(
      buckets_.size(), static_cast<size_t>(std::floor(position)));
  uint64_t below = 0;
  for (size_t i = 0; i < full_buckets; ++i) below += buckets_[i];
  double fraction = static_cast<double>(below);
  if (full_buckets < buckets_.size()) {
    // Linear interpolation inside the boundary bucket.
    const double inside = position - static_cast<double>(full_buckets);
    fraction += inside * static_cast<double>(buckets_[full_buckets]);
  }
  return fraction / static_cast<double>(row_count_);
}

double ColumnStatistics::EstimateSelectivity(CompareOp op,
                                             double constant) const {
  // Treat the domain as effectively continuous; equality gets one
  // bucket-resolution sliver. All results clamped to [0, 1].
  double sel = 0.0;
  switch (op) {
    case CompareOp::kLt:
      sel = FractionBelow(constant);
      break;
    case CompareOp::kLe:
      // Le = Lt plus the mass of the boundary value itself, approximated
      // at bucket resolution.
      sel = FractionBelow(constant) +
            EstimateRangeFraction(constant, constant);
      break;
    case CompareOp::kGt:
      sel = 1.0 - FractionBelow(constant) -
            EstimateRangeFraction(constant, constant);
      break;
    case CompareOp::kGe:
      sel = 1.0 - FractionBelow(constant);
      break;
    case CompareOp::kEq:
      sel = EstimateRangeFraction(constant, constant);
      break;
    case CompareOp::kNe:
      sel = 1.0 - EstimateRangeFraction(constant, constant);
      break;
  }
  return std::clamp(sel, 0.0, 1.0);
}

double ColumnStatistics::EstimateRangeFraction(double lo, double hi) const {
  if (hi < lo || row_count_ == 0) return 0.0;
  const double width = BucketWidth();
  if (width <= 0) {
    return (lo <= min_ && min_ <= hi) ? 1.0 : 0.0;
  }
  // A point (or sub-bucket) range gets the local bucket density over one
  // value-sliver of one bucket-width resolution.
  const double span = std::max(hi - lo, width / 64.0);
  const double from = FractionBelow(lo);
  const double to = FractionBelow(lo + span);
  return std::clamp(to - from, 0.0, 1.0);
}

Result<TableStatistics> TableStatistics::Build(const Table& table,
                                               size_t sample_size) {
  TableStatistics stats;
  stats.row_count_ = table.num_rows();
  const size_t effective_sample =
      sample_size == 0 ? table.num_rows() : sample_size;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnBase* column = table.column(c);
    NIPO_ASSIGN_OR_RETURN(
        ColumnStatistics col_stats,
        ColumnStatistics::BuildFromPrefix(*column, effective_sample));
    stats.columns_.emplace_back(column->name(), std::move(col_stats));
  }
  return stats;
}

Result<const ColumnStatistics*> TableStatistics::ForColumn(
    const std::string& name) const {
  for (const auto& [col_name, col_stats] : columns_) {
    if (col_name == name) return &col_stats;
  }
  return Status::NotFound("no statistics for column '" + name + "'");
}

double TableStatistics::EstimateOperatorSelectivity(
    const OperatorSpec& op) const {
  if (op.kind != OperatorSpec::Kind::kPredicate) {
    // probe selectivity lives in the dimension table
    return kUnknownSelectivity;
  }
  auto stats = ForColumn(op.predicate.column);
  if (!stats.ok()) return kUnknownSelectivity;
  return stats.ValueOrDie()->EstimateSelectivity(op.predicate.op,
                                                 op.predicate.value);
}

void SampleMerger::Add(const VectorSample& sample) {
  merged_.vector_index = std::max(merged_.vector_index, sample.vector_index);
  merged_.result.input_tuples += sample.result.input_tuples;
  merged_.result.qualifying_tuples += sample.result.qualifying_tuples;
  merged_.result.zone_skipped += sample.result.zone_skipped;
  merged_.result.aggregate += sample.result.aggregate;
  merged_.counters += sample.counters;
  ++count_;
}

void SampleMerger::Reset() {
  merged_ = VectorSample{};
  count_ = 0;
}

}  // namespace nipo
