#include "exec/vector_driver.h"

#include <algorithm>

#include "common/logging.h"

/// \file vector_driver.cc
/// Vector-at-a-time driving of a PipelineExecutor: fixed-size vector
/// slicing, per-vector counter sampling around each slice, and the
/// between-vector hook the progressive optimizer attaches to.

namespace nipo {

VectorDriver::VectorDriver(PipelineExecutor* executor, size_t vector_size)
    : executor_(executor), vector_size_(vector_size) {
  NIPO_CHECK(executor_ != nullptr);
  NIPO_CHECK(vector_size_ > 0);
}

void DriveVector(PipelineExecutor* executor, size_t begin, size_t end,
                 size_t vector_index, const VectorHook& hook,
                 DriveResult* drive) {
  Pmu* pmu = executor->pmu();
  PmuCounters before;
  if (hook) {
    // Reading the counters around the vector costs a (tiny) fixed
    // amount, exactly like a PAPI_read pair on real hardware.
    pmu->ChargeCycles(kCounterReadCycles);
    before = pmu->Read();
  }
  const VectorResult r = executor->ExecuteRange(begin, end);
  drive->input_tuples += r.input_tuples;
  drive->qualifying_tuples += r.qualifying_tuples;
  drive->zone_skipped_tuples += r.zone_skipped;
  drive->aggregate += r.aggregate;
  if (hook) {
    pmu->ChargeCycles(kCounterReadCycles);
    VectorSample sample;
    sample.vector_index = vector_index;
    sample.result = r;
    sample.counters = pmu->Read() - before;
    hook(sample);
  }
}

size_t VectorDriver::num_vectors() const {
  return (executor_->num_rows() + vector_size_ - 1) / vector_size_;
}

DriveResult VectorDriver::Run(const VectorHook& hook) {
  DriveResult out;
  Pmu* pmu = executor_->pmu();
  const PmuCounters start = pmu->Read();
  const size_t rows = executor_->num_rows();
  size_t vector_index = 0;
  for (size_t begin = 0; begin < rows; begin += vector_size_) {
    DriveVector(executor_, begin, std::min(begin + vector_size_, rows),
                vector_index, hook, &out);
    ++vector_index;
  }
  out.num_vectors = vector_index;
  out.total = pmu->Read() - start;
  out.simulated_msec = pmu->ToMilliseconds(out.total);
  return out;
}

}  // namespace nipo
