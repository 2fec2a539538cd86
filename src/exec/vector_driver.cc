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

VectorSample SampleRange(PipelineExecutor* executor, size_t begin, size_t end,
                         size_t vector_index) {
  // Reading the counters around the vector costs a (tiny) fixed amount,
  // exactly like a PAPI_read pair on real hardware.
  Pmu* pmu = executor->pmu();
  pmu->ChargeCycles(kCounterReadCycles);
  const PmuCounters before = pmu->Read();
  VectorSample sample;
  sample.vector_index = vector_index;
  sample.result = executor->ExecuteRange(begin, end);
  pmu->ChargeCycles(kCounterReadCycles);
  sample.counters = pmu->Read() - before;
  return sample;
}

void DriveVector(PipelineExecutor* executor, size_t begin, size_t end,
                 size_t vector_index, const VectorHook& hook,
                 DriveResult* drive) {
  VectorSample sample;
  if (hook) {
    sample = SampleRange(executor, begin, end, vector_index);
  } else {
    sample.result = executor->ExecuteRange(begin, end);
  }
  const VectorResult& r = sample.result;
  drive->input_tuples += r.input_tuples;
  drive->qualifying_tuples += r.qualifying_tuples;
  drive->zone_skipped_tuples += r.zone_skipped;
  drive->aggregate += r.aggregate;
  if (hook) hook(sample);
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
