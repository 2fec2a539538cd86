#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/vector_driver.h"
#include "storage/table.h"

/// \file statistics.h
/// Compile-time column statistics: equi-width histograms, min/max, and a
/// sampled distinct-count estimate -- plus the run-time SampleMerger that
/// folds per-morsel counter samples into one merged window statistic for
/// the parallel progressive coordinator (DESIGN.md "Parallel execution").
///
/// The compile-time statistics power the *static* optimizer baseline
/// (optimizer/static_optimizer.h) -- the component whose failure modes
/// (stale statistics, skew, correlation, parameters unknown at compile
/// time) motivate the paper's progressive approach. The statistics are
/// honest single-column summaries: selectivity estimates for conjunctions
/// multiply per-column selectivities under the independence assumption,
/// exactly the assumption correlated data breaks (paper Section 4.5).

namespace nipo {

/// Buckets of every column histogram.
inline constexpr size_t kHistogramBuckets = 64;
/// Selectivity the statistics assume where they have none: probes and
/// unknown columns.
inline constexpr double kUnknownSelectivity = 0.5;

/// \brief Equi-width histogram plus min/max/count for one column.
class ColumnStatistics {
 public:
  /// Builds statistics from every value of `column` (values read as
  /// doubles).
  static Result<ColumnStatistics> Build(const ColumnBase& column);

  /// Builds from a sampled prefix of `sample_size` values, emulating the
  /// stale / partial statistics real optimizers operate with.
  static Result<ColumnStatistics> BuildFromPrefix(const ColumnBase& column,
                                                  size_t sample_size);

  double min() const { return min_; }
  double max() const { return max_; }
  uint64_t row_count() const { return row_count_; }
  size_t num_buckets() const { return buckets_.size(); }

  /// Estimated selectivity of `value_column op constant` under the
  /// histogram, with linear interpolation inside the boundary bucket.
  double EstimateSelectivity(CompareOp op, double constant) const;

  /// Fraction of rows in [lo, hi] (inclusive), interpolated.
  double EstimateRangeFraction(double lo, double hi) const;

 private:
  double BucketWidth() const;
  /// Fraction of rows strictly below `constant`.
  double FractionBelow(double constant) const;

  double min_ = 0;
  double max_ = 0;
  uint64_t row_count_ = 0;
  std::vector<uint64_t> buckets_;
};

/// \brief Statistics for every column of a table.
class TableStatistics {
 public:
  /// Builds statistics for all columns. `sample_size` 0 means exact
  /// (full-column) statistics; otherwise only a prefix is summarized.
  static Result<TableStatistics> Build(const Table& table,
                                       size_t sample_size = 0);

  Result<const ColumnStatistics*> ForColumn(const std::string& name) const;

  /// Estimated selectivity of a predicate under the histograms;
  /// probes / unknown columns get kUnknownSelectivity.
  double EstimateOperatorSelectivity(const OperatorSpec& op) const;

  uint64_t row_count() const { return row_count_; }

 private:
  uint64_t row_count_ = 0;
  std::vector<std::pair<std::string, ColumnStatistics>> columns_;
};

/// \brief Merges per-morsel (or per-vector) execution samples into one
/// window sample that is statistically equivalent for the Section 4.2
/// estimators.
///
/// The learning algorithm consumes only event *totals* over a window
/// executed under one evaluation order (tuples in/out, branches not taken,
/// misprediction splits, L3 accesses), and every one of those totals is
/// additive across disjoint row ranges. Summing the samples of morsels
/// that ran under the same order -- regardless of which worker thread ran
/// them -- therefore yields exactly the sample a single machine would have
/// produced for the union of those rows, which is why merged per-morsel
/// statistics keep the paper's estimators valid under sharded execution
/// (the determinism argument in DESIGN.md "Parallel execution").
class SampleMerger {
 public:
  /// Folds `sample` into the window. The caller is responsible for only
  /// adding samples taken under one evaluation order.
  void Add(const VectorSample& sample);

  /// Number of samples folded in since the last Reset().
  size_t count() const { return count_; }

  /// The merged window: summed results and counters; vector_index is the
  /// largest added index (the window's end position in the scan).
  const VectorSample& merged() const { return merged_; }

  void Reset();

 private:
  VectorSample merged_;
  size_t count_ = 0;
};

}  // namespace nipo
