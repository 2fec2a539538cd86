#pragma once

#include <cstdint>
#include <vector>

#include "cost/branch_model.h"
#include "cost/cache_model.h"

/// \file counter_model.h
/// Combined prediction of the four performance counters the paper's
/// learning algorithm exploits (Section 4.2): branches not taken,
/// mispredicted-taken branches, mispredicted-not-taken branches, and L3
/// accesses. Given a candidate vector of per-predicate selectivities this
/// produces the counter values the PMU would report, which the
/// selectivity estimator compares against the sampled values
/// (minimization function, Equation 10).

namespace nipo {

/// \brief Static description of the scanned query shape (independent of
/// the candidate selectivities).
struct ScanShape {
  double num_tuples = 0;
  /// Value width in bytes of each predicate column, in evaluation order.
  std::vector<uint32_t> predicate_widths;
  /// Columns read only by fully qualifying tuples (aggregate inputs).
  std::vector<uint32_t> payload_widths;
  /// Encoded bytes a scan touches per value (0 / empty = plain storage);
  /// aligned with predicate_widths / payload_widths when non-empty. Keeps
  /// the cache-access prediction honest over compressed columns.
  std::vector<double> predicate_packed_bytes;
  std::vector<double> payload_packed_bytes;
  ScanCacheModelConfig cache;
  PredictorConfig predictor;
};

/// \brief The four sampled/predicted counters of Equation 10.
struct CounterEstimate {
  double branches_not_taken = 0;
  double taken_mp = 0;
  double not_taken_mp = 0;
  double l3_accesses = 0;
};

/// \brief Predicts all four counters for `selectivities` (one per
/// predicate, in evaluation order) over the given shape.
CounterEstimate PredictCounters(const ScanShape& shape,
                                const std::vector<double>& selectivities);

/// \brief The L3-access part of PredictCounters alone: the scan cache
/// model summed over the predicate columns (each read at the product of
/// the preceding selectivities) and then the payload columns (read by
/// qualifying tuples). Allocation-free; the estimator's objective calls
/// it once per candidate point.
double PredictScanL3Accesses(const ScanShape& shape,
                             const std::vector<double>& selectivities);

}  // namespace nipo
