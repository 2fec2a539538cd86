#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/pipeline.h"

/// \file vector_driver.h
/// Vector-at-a-time execution (paper Section 4.4): the table is processed
/// in fixed-size vectors; counter samples are taken around each vector
/// like PAPI_read around a morsel, and a hook between vectors is where the
/// progressive optimizer lives.

namespace nipo {

/// \brief Per-vector execution record.
struct VectorSample {
  size_t vector_index = 0;
  VectorResult result;
  PmuCounters counters;  ///< delta for this vector only
};

/// \brief Aggregated outcome of a driven execution.
struct DriveResult {
  uint64_t input_tuples = 0;
  uint64_t qualifying_tuples = 0;
  /// Tuples skipped by zone maps before per-tuple work (subset of
  /// input_tuples; 0 without encoded columns).
  uint64_t zone_skipped_tuples = 0;
  double aggregate = 0.0;
  PmuCounters total;          ///< sum over all vectors
  double simulated_msec = 0;  ///< total simulated run-time
  size_t num_vectors = 0;
};

/// \brief Cost of one counter-sampling call, charged per vector when
/// sampling is enabled. ~200 cycles matches a rdpmc-based PAPI fast-path
/// read; Figure 16 shows this to be negligible relative to vector work.
inline constexpr double kCounterReadCycles = 200.0;

/// \brief Executes rows [begin, end) between a charged counter-read pair
/// (kCounterReadCycles on each side, like a PAPI_read pair around a
/// vector) and returns the vector's sample. The sampled solo step
/// (DriveVector) and the sharded driver's per-morsel sampling both read
/// their counters through this one sequence.
VectorSample SampleRange(PipelineExecutor* executor, size_t begin, size_t end,
                         size_t vector_index);

/// \brief Hook invoked after each vector with its sample. May call
/// executor->Reorder() to change the evaluation order for subsequent
/// vectors.
using VectorHook = std::function<void(const VectorSample&)>;

/// \brief One step of the vector loop: executes rows [begin, end) and
/// folds the result into `drive`. With a `hook`, the vector is sampled
/// (SampleRange) and the hook gets the sample. VectorDriver::Run
/// and the workload driver both step through this, which is what keeps a
/// workload query bit-identical to its solo run.
void DriveVector(PipelineExecutor* executor, size_t begin, size_t end,
                 size_t vector_index, const VectorHook& hook,
                 DriveResult* drive);

/// \brief Drives a PipelineExecutor vector by vector.
class VectorDriver {
 public:
  /// \param executor compiled pipeline (not owned)
  /// \param vector_size tuples per vector (the paper uses 1M at SF 100;
  ///        scaled-down runs use proportionally smaller vectors)
  VectorDriver(PipelineExecutor* executor, size_t vector_size);

  /// Executes the whole table. If `hook` is set, counters are sampled
  /// around every vector (charging kCounterReadCycles each) and the hook
  /// runs between vectors; otherwise the table is executed without
  /// per-vector sampling (the non-instrumented baseline).
  DriveResult Run(const VectorHook& hook = nullptr);

 private:
  PipelineExecutor* executor_;
  size_t vector_size_;
};

}  // namespace nipo
