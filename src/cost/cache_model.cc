#include "cost/cache_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

/// \file cache_model.cc
/// Scan cache-traffic estimates: plain sequential reads for the first
/// column of an order, conditional-read patterns with density equal to the
/// product of the preceding selectivities for every later column.

namespace nipo {

namespace {

/// x^n for n >= 1 by binary powering: one squaring per bit below the top
/// one and one multiply per set bit (four squarings for 16 values/line).
double PowInt(double x, uint32_t n) {
  double result = 1.0;
  while (true) {
    if (n & 1) result *= x;
    n >>= 1;
    if (n == 0) return result;
    x *= x;
  }
}

}  // namespace

ColumnCacheEstimate EstimateColumnCache(const ScanCacheModelConfig& config,
                                        double num_tuples,
                                        const ScanColumnSpec& column) {
  NIPO_CHECK(column.value_width > 0);
  NIPO_CHECK(kCacheLineBytes >= column.value_width);
  NIPO_CHECK(column.packed_bytes_per_value >= 0.0);
  ColumnCacheEstimate out;
  // Encoded columns stream their packed representation past the caches, so
  // the line density is set by the encoded width, not the decoded one.
  const double scan_bytes = column.packed_bytes_per_value > 0.0
                                ? column.packed_bytes_per_value
                                : static_cast<double>(column.value_width);
  const double values_per_line =
      static_cast<double>(kCacheLineBytes) / scan_bytes;
  out.lines_total = num_tuples / values_per_line;
  const double rho = std::clamp(column.access_fraction, 0.0, 1.0);
  // Probability that a line contains at least one accessed value. A plain
  // column packs a whole number of values per line; only a packed width
  // needs the general power.
  const bool whole_values = column.packed_bytes_per_value == 0.0 &&
                            kCacheLineBytes % column.value_width == 0;
  const double p_untouched =
      whole_values
          ? PowInt(1.0 - rho, kCacheLineBytes / column.value_width)
          : std::pow(1.0 - rho, values_per_line);
  const double p_accessed = 1.0 - p_untouched;
  out.lines_accessed = out.lines_total * p_accessed;
  // A line is a "random miss" when it is accessed but its predecessor line
  // was skipped, so the next-line prefetch fired for nothing and the line
  // itself needs a fresh demand fetch.
  out.random_lines = out.lines_total * p_accessed * p_untouched;
  if (config.double_count_random_misses) {
    out.l3_accesses = out.lines_accessed + out.random_lines;
  } else {
    out.l3_accesses = out.lines_accessed;
  }
  return out;
}

ScanFootprintEstimate EstimateScanFootprint(uint64_t streamed_bytes,
                                            uint64_t reuse_bytes,
                                            uint64_t l3_capacity_bytes) {
  ScanFootprintEstimate estimate;
  estimate.streamed_bytes = streamed_bytes;
  estimate.reuse_bytes = reuse_bytes;
  const uint64_t total = streamed_bytes + reuse_bytes;
  estimate.footprint_bytes =
      l3_capacity_bytes > 0 ? std::min(total, l3_capacity_bytes) : total;
  return estimate;
}

}  // namespace nipo
