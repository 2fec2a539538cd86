#include "cost/counter_model.h"

#include <algorithm>

#include "common/logging.h"

/// \file counter_model.cc
/// Assembly of the four-counter prediction (branches not taken,
/// mispredicted-taken, mispredicted-not-taken, L3 accesses) from the
/// branch and cache models, for one candidate selectivity vector.

namespace nipo {

CounterEstimate PredictCounters(const ScanShape& shape,
                                const std::vector<double>& selectivities) {
  NIPO_CHECK(selectivities.size() == shape.predicate_widths.size());
  CounterEstimate out;
  const BranchEstimate branches =
      EstimateScanBranches(shape.predictor, shape.num_tuples, selectivities);
  out.branches_not_taken = branches.branches_not_taken;
  out.taken_mp = branches.taken_mp;
  out.not_taken_mp = branches.not_taken_mp;
  out.l3_accesses = PredictScanL3Accesses(shape, selectivities);
  return out;
}

double PredictScanL3Accesses(const ScanShape& shape,
                             const std::vector<double>& selectivities) {
  NIPO_CHECK(selectivities.size() == shape.predicate_widths.size());
  NIPO_CHECK(shape.predicate_packed_bytes.empty() ||
             shape.predicate_packed_bytes.size() ==
                 shape.predicate_widths.size());
  NIPO_CHECK(shape.payload_packed_bytes.empty() ||
             shape.payload_packed_bytes.size() == shape.payload_widths.size());
  auto l3_of = [&](uint32_t width, double rho, double packed) {
    return EstimateColumnCache(shape.cache, shape.num_tuples,
                               ScanColumnSpec{width, rho, packed})
        .l3_accesses;
  };
  double total = 0.0;
  double rho = 1.0;
  for (size_t i = 0; i < selectivities.size(); ++i) {
    total += l3_of(shape.predicate_widths[i], rho,
                   shape.predicate_packed_bytes.empty()
                       ? 0.0
                       : shape.predicate_packed_bytes[i]);
    rho *= std::clamp(selectivities[i], 0.0, 1.0);
  }
  for (size_t i = 0; i < shape.payload_widths.size(); ++i) {
    total += l3_of(shape.payload_widths[i], rho,
                   shape.payload_packed_bytes.empty()
                       ? 0.0
                       : shape.payload_packed_bytes[i]);
  }
  return total;
}

}  // namespace nipo
