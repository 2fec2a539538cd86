#include "cost/join_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

/// \file join_model.cc
/// External-memory-model probe-miss estimates (Equations 1-2): expected
/// distinct cache lines touched by r random probes into a relation,
/// evaluated per hierarchy level with numerically stable expm1/log1p.

namespace nipo {

double ExpectedDistinctLines(double total_lines, double num_accesses) {
  if (total_lines <= 0) return 0.0;
  if (num_accesses <= 0) return 0.0;
  // L * (1 - (1 - 1/L)^r), computed via expm1/log1p for stability when L
  // is large and r small.
  const double log_keep = std::log1p(-1.0 / total_lines);
  return total_lines * -std::expm1(num_accesses * log_keep);
}

double ExpectedRandomMisses(const JoinRelationSpec& relation,
                            const CacheGeometry& cache, double num_accesses) {
  NIPO_CHECK(relation.tuple_width > 0);
  const double relation_bytes = relation.num_tuples * relation.tuple_width;
  const double total_lines =
      std::max(1.0, relation_bytes / static_cast<double>(kCacheLineBytes));
  const double distinct = ExpectedDistinctLines(total_lines, num_accesses);
  const double capacity_lines = static_cast<double>(cache.num_lines());
  if (distinct < capacity_lines) {
    // The working set fits: each distinct line misses exactly once.
    return distinct;
  }
  // Thrashing regime: a probe hits only if it lands on one of the
  // capacity_lines resident lines of the relation.
  const double resident_fraction =
      std::min(1.0, (capacity_lines * kCacheLineBytes) / relation_bytes);
  return num_accesses * (1.0 - resident_fraction);
}

}  // namespace nipo
