#pragma once

/// \file bench.h
/// Shared pieces of the benchmark binary: checks, metrics, query
/// definitions with their reference results, solo execution (plain or
/// replayed with spans), and the Workload interface each workload
/// implements.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "trace.h"

namespace nipobench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Threads of the threaded drivers, at most.
inline constexpr size_t kMaxThreads = 4;

/// Host times are CPU times in reference seconds. The host is a virtual
/// machine on a shared server, and the other tenants move a wall time in
/// two ways, for minutes at a time. Its virtual CPUs wait for a physical
/// one (steal time): wall time counts the wait, CPU time does not. And the
/// same code runs slower with CPU time equal to wall time. So a timed
/// call's CPU time, over every thread of the process, is multiplied by
/// kReferenceSeconds over the CPU time of a fixed reference kernel run
/// just before it. The kernel is shaped like the engine's host work (a
/// predicate over a column that books each cache line in a simulated
/// set-associative cache), and its code never changes, so only the host
/// moves it. kReferenceSeconds is about the kernel's time on the
/// development host (4 vCPUs of a Xeon, model 207), so reference seconds
/// read close to CPU seconds there.
inline constexpr double kReferenceSeconds = 3.5e-4;

/// Allocates the reference kernels' buffers. Call once before the heap is
/// measured, so that they neither count in heap_mb nor move the engine's
/// allocations.
void PrepareReference();

/// Times one call in reference CPU seconds: construct it just before the
/// call and read Seconds() just after. Main thread only.
class ReferenceTimer {
 public:
  /// Samples the reference kernel on `threads` threads at once (at most
  /// kMaxThreads), one for each thread the call keeps busy, each as the
  /// median of three runs, and takes the kernels' mean speed.
  explicit ReferenceTimer(size_t threads);

  /// CPU seconds of the process since construction, in reference seconds.
  double Seconds() const;

 private:
  double scale_;
  double cpu0_;
};

/// Median reference kernel time, in CPU seconds, over every sample so
/// far: how fast the host was during the run.
double ReferenceKernelSeconds();

/// Simulated machine of every workload: the paper's Xeon with caches
/// divided by 16 (L1 2 KB, L2 16 KB, L3 960 KB).
inline constexpr uint64_t kCacheDivisor = 16;

// Span names of the traced run.
inline constexpr const char* kSpanSetup = "setup";
inline constexpr const char* kSpanGenerate = "tpch.generate";
inline constexpr const char* kSpanRegister = "engine.register";
inline constexpr const char* kSpanEncode = "storage.encode";
inline constexpr const char* kSpanPass = "pass";
inline constexpr const char* kSpanQuery = "query.solo";
inline constexpr const char* kSpanNewMachine = "hw.new_machine";
inline constexpr const char* kSpanCompile = "exec.compile";
inline constexpr const char* kSpanExecuteRange = "exec.execute_range";
inline constexpr const char* kSpanOnVector = "optimizer.on_vector";
inline constexpr const char* kSpanExecute = "engine.execute";
inline constexpr const char* kSpanPool = "exec.workload.pool";
inline constexpr const char* kSpanEvent = "exec.workload.event";

/// Median (mean of the middle two for even counts); 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
double NearestRank(std::vector<double> values, double p);

/// Counts executions and gates. An execution fails when its call returns
/// an error or its result is wrong; a gate fails when a cross-check
/// (bit-identity between passes, traced vs untraced, ...) does not hold.
class Checks {
 public:
  void Execution(bool ok, const std::string& what);
  void Gate(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && gates_failed_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  void Note(const std::string& what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t gates_failed_ = 0;
  std::vector<std::string> messages_;
};

/// Named metric values with their units, plus free-form info numbers.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, double value) { info_[name] = value; }
  const std::vector<Entry>& entries() const { return entries_; }
  const std::map<std::string, double>& info() const { return info_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, double> info_;
};

/// Simulated outputs of a pass, compared bit for bit between passes.
using Fingerprint = std::vector<uint64_t>;
uint64_t Bits(double value);
void AddCounters(const nipo::PmuCounters& c, Fingerprint* f);
/// Results, full counter vector, simulated time and final order.
void AddReport(const nipo::ExecReport& r, Fingerprint* f);

/// A query with its reference result and oracle order.
struct QueryDef {
  std::string name;
  nipo::QuerySpec spec;
  uint64_t ref_qualifying = 0;
  double ref_aggregate = 0;
  /// Operators by ascending true selectivity (ties in spec order).
  std::vector<size_t> oracle_order;
};

/// Computes the reference result of `spec` without booking anything:
/// ComputeQ6Reference for predicate-only queries, a row-at-a-time
/// ColumnView::ValueAsDouble evaluation when FK probes take part.
nipo::Result<QueryDef> DefineQuery(const nipo::Engine& engine,
                                   std::string name, nipo::QuerySpec spec);

/// Median value of a column (unbooked scan).
nipo::Result<double> ColumnMedian(const nipo::Table& table,
                                  const std::string& column);

/// Exact count, aggregate within 1e-9 relative.
bool MatchesReference(const QueryDef& q, uint64_t qualifying,
                      double aggregate);

/// Solo execution options: fixed order (baseline) or progressive.
nipo::ExecOptions SoloOptions(nipo::ExecMode mode,
                              const std::vector<size_t>& order,
                              size_t vector_size, size_t reopt_interval);

/// Engine::Execute replayed through public calls with spans, in the
/// sampling discipline of VectorDriver::Run: NewMachine, Compile and
/// Reorder, then per vector ExecuteRange and (progressive only)
/// ProgressiveOptimizer::OnVector. Counters, results and final order are
/// those of Engine::Execute.
nipo::Result<nipo::ExecReport> ReplaySolo(const nipo::Engine& engine,
                                          const nipo::QuerySpec& query,
                                          const nipo::ExecOptions& options,
                                          Tracer* tracer);

/// Engine::Execute when `tracer` is off, ReplaySolo when it is on.
nipo::Result<nipo::ExecReport> RunSolo(const nipo::Engine& engine,
                                       const nipo::QuerySpec& query,
                                       const nipo::ExecOptions& options,
                                       Tracer* tracer);

/// Generates the TPC-H tables (lineitem only, or with orders and part),
/// registers them, and optionally encodes lineitem, with spans.
nipo::Result<std::unique_ptr<nipo::Engine>> BuildEngine(double scale_factor,
                                                        bool dimensions,
                                                        bool encode,
                                                        uint64_t seed,
                                                        Tracer* tracer);

/// Worker threads of the threaded drivers: min(kMaxThreads, CPUs this
/// process may run on).
size_t NumThreads();

/// Counts behind the per-layer metrics, accumulated over one pass.
struct LayerTally {
  nipo::PmuCounters counters;
  uint64_t tuples = 0;  ///< input tuples behind `counters`
  uint64_t zone_skipped = 0;
  uint64_t queries = 0;
  uint64_t progressive_queries = 0;
  uint64_t optimizations = 0;
  uint64_t changes = 0;
  uint64_t reverts = 0;

  void AddExecution(const nipo::PmuCounters& c, uint64_t input,
                    uint64_t skipped);
  void AddDecisions(size_t optimizations,
                    const std::vector<nipo::PeoChange>& changes);
  void Add(const nipo::ExecReport& r);
};

struct Seeds {
  uint64_t tpch = 0;
  uint64_t fault = 0;
};

/// What one pass produced.
struct PassResult {
  double wall_s = 0;
  /// CPU time of each execution in reference seconds, in the same order
  /// in every pass.
  std::vector<double> execution_ref_s;
  uint64_t tuples = 0;  ///< input tuples of every execution in the pass
  Fingerprint fingerprint;
  double sim_baseline_ms = 0;
  double sim_progressive_ms = 0;
  double sim_oracle_ms = 0;  ///< oracle time of the progressive runs' queries
  std::vector<double> latency_ms;
  double goodput_qps = 0;
  LayerTally tally;
  std::vector<std::pair<std::string, double>> info;
};

/// One fixed-order or progressive execution of a scan or join pass.
struct Run {
  size_t query = 0;
  nipo::ExecMode mode = nipo::ExecMode::kBaseline;
  std::vector<size_t> order;
  bool oracle_only = false;  ///< fixed-order run that only feeds the oracle
};

/// Simulated outcome of one Run, for SummarizeRuns.
struct RunOutcome {
  bool ok = false;
  double machine_ms = 0;  ///< simulated machine time (summed over workers)
  double latency_ms = 0;  ///< simulated latency
};

/// Fills the simulated end-to-end figures of a closed-loop pass. The
/// oracle time of a query is its cheapest fixed-order run in the pass.
void SummarizeRuns(const std::vector<Run>& runs,
                   const std::vector<RunOutcome>& outcomes,
                   size_t num_queries, PassResult* out);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs; timed as set-up.
  virtual nipo::Result<std::unique_ptr<nipo::Engine>> Setup(
      const Seeds& seeds, Tracer* tracer) const = 0;

  /// Defines queries, references and the run list (not timed).
  virtual nipo::Status Prepare(const nipo::Engine& engine, const Seeds& seeds,
                               Checks* checks) = 0;

  /// Runs one pass, checking every result.
  virtual PassResult RunPass(const nipo::Engine& engine, Tracer* tracer,
                             Checks* checks) = 0;

  /// Solo executions replayed with spans after the traced pass, for
  /// workloads whose passes run no solo query: (query, options).
  virtual std::vector<std::pair<size_t, nipo::ExecOptions>> ReplaySet()
      const {
    return {};
  }

  /// Per-layer metrics of this workload's drivers, from the last pass.
  virtual void AddLayerMetrics(const nipo::Engine&, Checks*, Metrics*) {}

  const std::vector<QueryDef>& queries() const { return queries_; }

 protected:
  std::vector<QueryDef> queries_;
};

std::unique_ptr<Workload> MakeScanWorkload(bool encoded);
std::unique_ptr<Workload> MakeJoinWorkload();
std::unique_ptr<Workload> MakeServiceWorkload();

/// Isolated per-layer probes over the workload's own lineitem columns
/// (the first 2^20 rows); see probes.cc.
struct ProbeResults {
  double scan_ns_per_value = 0;
  double encode_ns_per_value = 0;
  double encoded_bytes_per_value = 0;
  double compare_select_ns_per_value = 0;
  double sequential_loads_ns_per_value = 0;
  double predicate_branches_ns_per_value = 0;
  double gather_orders_ns_per_probe = 0;
  double gather_part_ns_per_probe = 0;
};
nipo::Result<ProbeResults> RunProbes(const nipo::Engine& engine,
                                     const std::vector<QueryDef>& queries);

}  // namespace nipobench
