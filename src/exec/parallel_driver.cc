#include "exec/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/logging.h"

/// \file parallel_driver.cc
/// Morsel-sharded multi-threaded driving of per-worker PipelineExecutors
/// (DESIGN.md "Parallel execution"): contiguous per-worker morsel ranges
/// with half-range work-stealing, per-worker private simulated machines,
/// plan-version broadcasting at morsel boundaries, and the deterministic
/// morsel-index-ordered merge.

namespace nipo {

namespace {

/// Morsel scheduling state. One mutex guards all ranges: morsel counts are
/// small (hundreds to thousands) and each acquisition hands out a whole
/// morsel of work, so contention is negligible next to morsel execution.
class MorselQueue {
 public:
  MorselQueue(size_t num_morsels, size_t num_workers) {
    ranges_.resize(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      ranges_[w].begin = num_morsels * w / num_workers;
      ranges_[w].end = num_morsels * (w + 1) / num_workers;
    }
  }

  /// Claims the next morsel for `worker`: the front of its own range, or —
  /// once that is drained — the upper half of the largest remaining victim
  /// range (classic half-stealing keeps stolen work contiguous, preserving
  /// the sequential-scan locality each private machine depends on).
  /// Increments *steals when a steal occurred.
  std::optional<size_t> Next(size_t worker, uint64_t* steals) {
    std::lock_guard<std::mutex> lock(mu_);
    Range& own = ranges_[worker];
    if (own.begin == own.end) {
      size_t victim = worker;
      size_t victim_size = 0;
      for (size_t w = 0; w < ranges_.size(); ++w) {
        const size_t size = ranges_[w].end - ranges_[w].begin;
        if (w != worker && size > victim_size) {
          victim = w;
          victim_size = size;
        }
      }
      if (victim_size == 0) return std::nullopt;  // everything is claimed
      Range& other = ranges_[victim];
      const size_t take = (victim_size + 1) / 2;
      own.begin = other.end - take;
      own.end = other.end;
      other.end -= take;
      ++*steals;
    }
    return own.begin++;
  }

 private:
  struct Range {
    size_t begin = 0;
    size_t end = 0;
  };
  std::mutex mu_;
  std::vector<Range> ranges_;
};

/// Published plan (order and forms), bumped by each broadcast. Workers
/// check the atomic version before every morsel and only take the lock (to
/// apply the plan) when it moved.
struct OrderBroadcast {
  std::atomic<uint64_t> version{0};
  std::mutex mu;
  PlanBroadcast plan;  // guarded by mu, valid when version > 0
};

}  // namespace

ParallelDriver::ParallelDriver(const Pmu& prototype, ExecutorFactory factory,
                               ParallelConfig config)
    : prototype_(prototype.CloneFresh()),
      factory_(std::move(factory)),
      config_(config) {}

Result<ParallelDriveResult> ParallelDriver::Run(
    std::optional<std::vector<size_t>> initial_order, const MorselHook& hook) {
  // Configuration is user input: propagate instead of aborting.
  if (factory_ == nullptr) {
    return Status::InvalidArgument("executor factory must not be null");
  }
  if (config_.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (config_.morsel_size == 0) {
    return Status::InvalidArgument("morsel_size must be positive");
  }
  const size_t num_workers = config_.num_threads;
  const bool sampling = hook != nullptr;

  // Build every worker's private machine and thread-local executor up
  // front, so factory errors surface before any thread starts.
  std::vector<std::unique_ptr<Pmu>> pmus;
  std::vector<std::unique_ptr<PipelineExecutor>> executors;
  pmus.reserve(num_workers);
  executors.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    pmus.push_back(std::make_unique<Pmu>(prototype_.CloneFresh()));
    NIPO_ASSIGN_OR_RETURN(std::unique_ptr<PipelineExecutor> exec,
                          factory_(pmus.back().get()));
    if (initial_order.has_value()) {
      NIPO_RETURN_NOT_OK(exec->Reorder(*initial_order));
    }
    executors.push_back(std::move(exec));
  }

  const size_t num_rows = executors.front()->num_rows();
  const size_t num_morsels =
      (num_rows + config_.morsel_size - 1) / config_.morsel_size;

  ParallelDriveResult out;
  out.num_morsels = num_morsels;
  out.workers.resize(num_workers);

  // Per-morsel slots: each is written by exactly one worker (the one that
  // claimed the morsel) and read only after join.
  std::vector<VectorResult> results(num_morsels);
  std::vector<MorselRecord> records(sampling ? num_morsels : 0);

  MorselQueue queue(num_morsels, num_workers);
  OrderBroadcast broadcast;
  std::mutex coordinator_mu;  // serializes hook invocations
  // Stop signals checked at morsel boundaries: the caller's cooperative
  // cancellation token, and the internal abort raised when any worker's
  // executor latches a runtime data error (no point finishing the scan
  // once the query has failed).
  std::atomic<bool> saw_cancel{false};
  std::atomic<bool> abort{false};

  auto worker_main = [&](size_t worker_id) {
    PipelineExecutor* exec = executors[worker_id].get();
    Pmu* pmu = pmus[worker_id].get();
    WorkerStats& stats = out.workers[worker_id];
    const PmuCounters start = pmu->Read();
    uint64_t local_version = 0;
    std::optional<size_t> morsel;
    for (;;) {
      if (config_.cancel != nullptr &&
          config_.cancel->load(std::memory_order_acquire)) {
        saw_cancel.store(true, std::memory_order_relaxed);
        break;
      }
      if (abort.load(std::memory_order_acquire)) break;
      if (!(morsel = queue.Next(worker_id, &stats.steals)).has_value()) {
        break;
      }
      // Apply any broadcast plan change at the morsel boundary.
      if (broadcast.version.load(std::memory_order_acquire) !=
          local_version) {
        std::lock_guard<std::mutex> lock(broadcast.mu);
        local_version = broadcast.version.load(std::memory_order_relaxed);
        NIPO_CHECK(exec->Reorder(broadcast.plan.order).ok());
        NIPO_CHECK(exec->SetForms(broadcast.plan.forms).ok());
      }
      const size_t begin = *morsel * config_.morsel_size;
      const size_t end = std::min(begin + config_.morsel_size, num_rows);
      if (!sampling) {
        results[*morsel] = exec->ExecuteRange(begin, end);
      } else {
        // Counter read pair around the morsel, exactly like the sampled
        // VectorDriver path (and PAPI_read around a morsel).
        pmu->ChargeCycles(kCounterReadCycles);
        const PmuCounters before = pmu->Read();
        const VectorResult r = exec->ExecuteRange(begin, end);
        pmu->ChargeCycles(kCounterReadCycles);
        MorselRecord record;
        record.sample.vector_index = *morsel;
        record.sample.result = r;
        record.sample.counters = pmu->Read() - before;
        record.worker_id = worker_id;
        record.order_version = local_version;
        results[*morsel] = r;
        records[*morsel] = record;
        if (hook) {
          std::lock_guard<std::mutex> lock(coordinator_mu);
          std::optional<PlanBroadcast> new_plan = hook(record);
          if (new_plan.has_value()) {
            std::lock_guard<std::mutex> plan_lock(broadcast.mu);
            broadcast.plan = std::move(*new_plan);
            broadcast.version.fetch_add(1, std::memory_order_release);
          }
        }
      }
      ++stats.morsels;
      if (!exec->error().ok()) {
        abort.store(true, std::memory_order_release);
        break;
      }
    }
    stats.counters = pmu->Read() - start;
    stats.simulated_msec = pmu->ToMilliseconds(stats.counters);
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (num_workers == 1) {
    // Run inline: keeps the single-shard path trivially bit-identical to
    // VectorDriver and free of thread-spawn noise in the wall clock.
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      threads.emplace_back(worker_main, w);
    }
    for (std::thread& t : threads) t.join();
  }
  out.wall_msec = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

  // Deterministic merge: results in morsel-index order (fixing the
  // floating-point summation order), counters over workers, simulated time
  // as the critical path.
  for (size_t m = 0; m < num_morsels; ++m) {
    out.merged.input_tuples += results[m].input_tuples;
    out.merged.qualifying_tuples += results[m].qualifying_tuples;
    out.merged.zone_skipped_tuples += results[m].zone_skipped;
    out.merged.aggregate += results[m].aggregate;
  }
  // Executed morsels, not the table's morsel count: a cancelled or
  // aborted run merges only what actually ran (equal on a full run).
  out.merged.num_vectors = 0;
  for (const WorkerStats& w : out.workers) {
    out.merged.num_vectors += w.morsels;
    out.merged.total += w.counters;
    out.merged.simulated_msec =
        std::max(out.merged.simulated_msec, w.simulated_msec);
  }
  out.samples = std::move(records);
  out.cancelled = saw_cancel.load(std::memory_order_relaxed);
  // Surface the first latched data error by worker index (only the shard
  // holding the bad row latches, so the pick is deterministic in
  // practice).
  for (const std::unique_ptr<PipelineExecutor>& exec : executors) {
    if (!exec->error().ok()) {
      out.error = exec->error();
      break;
    }
  }
  return out;
}

}  // namespace nipo
