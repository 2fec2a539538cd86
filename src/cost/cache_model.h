#pragma once

#include <cstdint>
#include <vector>

#include "hw/cache.h"

/// \file cache_model.h
/// Analytic cache-access model for scans (paper Section 3.1).
///
/// The model extends Pirk et al.'s generic scan model: the first column of
/// a predicate evaluation order is read with a plain sequential pattern,
/// every later column with a *sequential scan with conditional read*
/// pattern whose access density is the product of the preceding
/// selectivities. The paper's refinement -- which this module implements
/// and bench/ablation_cache_model quantifies -- is to count random misses
/// twice: a cache line reached by a non-sequential step costs both the
/// wasted next-line prefetch issued after the previous access and the
/// demand fetch of the actually used line.

namespace nipo {

/// \brief Description of one column touched by the scan.
struct ScanColumnSpec {
  uint32_t value_width = 4;  ///< bytes per value
  /// Fraction of tuples whose value is loaded: 1.0 for the first predicate
  /// column, the product of preceding selectivities for later columns.
  double access_fraction = 1.0;
  /// Encoded bytes a scan actually touches per value (dictionary codes or
  /// bit-packed words; see src/storage/encoding.h). Fractional for packed
  /// widths below a byte. Zero means the column is stored plain and
  /// `value_width` bytes stream past the caches per value.
  double packed_bytes_per_value = 0.0;
};

/// \brief Per-column cache estimate.
struct ColumnCacheEstimate {
  double lines_total = 0;     ///< lines spanned by the column
  double lines_accessed = 0;  ///< expected lines with >= 1 touched value
  double random_lines = 0;    ///< accessed lines whose predecessor was not
  double l3_accesses = 0;     ///< per the (optionally doubled) model
};

/// \brief Scan cache model configuration.
struct ScanCacheModelConfig {
  /// Paper's modification: random misses count twice (wasted prefetch +
  /// demand fetch). Disable to get the original Pirk et al. behaviour.
  bool double_count_random_misses = true;
};

/// \brief Expected cache behaviour of one column scanned over `num_tuples`
/// tuples with the given access density.
///
/// A line holds t = kCacheLineBytes / value_width values; under the model's
/// independence assumption a line is touched with probability
/// 1 - (1-rho)^t and is a "random" (non-sequentially reached) line with
/// probability (1 - (1-rho)^t) * (1-rho)^t.
ColumnCacheEstimate EstimateColumnCache(const ScanCacheModelConfig& config,
                                        double num_tuples,
                                        const ScanColumnSpec& column);

/// \brief Estimated shared-L3 working set of one query (the admission
/// input of footprint-aware co-scheduling; DESIGN.md Section 6).
struct ScanFootprintEstimate {
  uint64_t streamed_bytes = 0;  ///< sequentially-scanned bytes (fact columns)
  uint64_t reuse_bytes = 0;     ///< re-referenced bytes (dimension tables)
  uint64_t footprint_bytes = 0;  ///< the capacity claim (capped at L3 size)
};

/// \brief Combines streamed and reused bytes into a shared-L3 capacity
/// claim. Reused bytes count fully — the query wants them resident for
/// its whole run. Streamed bytes count too, because every streamed line
/// passes through L3 and displaces a resident line on its way (the
/// pollution a scan inflicts on co-runners), but the claim is capped at
/// `l3_capacity_bytes`: a scan larger than the cache cannot displace
/// more than the whole cache, and the cap is what lets such a query be
/// admitted at all (a "thrasher" claims the full L3, so footprint-aware
/// scheduling runs it against streams, never against reuse queries).
/// A zero capacity leaves the claim uncapped.
ScanFootprintEstimate EstimateScanFootprint(uint64_t streamed_bytes,
                                            uint64_t reuse_bytes,
                                            uint64_t l3_capacity_bytes);

}  // namespace nipo
