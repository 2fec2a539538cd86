#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/admission.h"
#include "exec/arrival.h"
#include "exec/faults.h"
#include "exec/latency.h"
#include "exec/pipeline.h"
#include "exec/vector_driver.h"
#include "hw/pmu.h"
#include "optimizer/progressive.h"

/// \file workload_driver.h
/// Multi-query workload execution (DESIGN.md "Workload execution").
///
/// A workload is a queue of queries over the shared table registry.
/// RunWorkload admits up to `max_concurrent` of them at a time (admission
/// control, picked by SchedulePolicy) and runs the admitted queries one
/// *scheduling quantum* (`burst_vectors` vectors) at a time, round-robin,
/// on `num_threads` simulated cores: the front of the ready queue is
/// dispatched to the earliest-free core, runs its quantum on that query's
/// private simulated machine, and yields back to the ready queue.
/// Queries therefore time-share the simulated cores at vector
/// granularity — the workload analogue of the parallel driver's morsel
/// scheduling (exec/parallel_driver.h) with queries in place of shards.
///
/// One deterministic event loop does all of this on the calling thread:
/// each quantum executes at its simulated dispatch point, in event order,
/// and its measured simulated duration decides when the core frees up
/// again. The same loop, fed recorded quanta instead of live execution,
/// is SimulateWorkloadSchedule — a live run and the replay of its
/// recorded quanta land on the identical schedule.
///
/// Every query owns a complete private simulated machine (Pmu::CloneFresh:
/// cold caches, neutral predictor) and, when progressive, its own
/// optimizer, so each query re-optimizes independently from its own
/// counter windows while interleaving with the others. Because a query's
/// vectors execute strictly in order on that private state, its results
/// and counters are **bit-identical to running it alone** through
/// Engine::Execute — unless `contention` deliberately shares the L3.
///
/// Concurrency metrics live in *simulated* time, like everything else in
/// this repository: makespan, per-query latencies and queries/sec come out
/// of the event loop, free of host-timing noise. They are bit-stable
/// within a process and, for one binary with ASLR off, across reruns;
/// heap placement otherwise moves them slightly, because the cache model
/// keys off host addresses (EXPERIMENTS.md "Reproducibility").
/// Host wall-clock of the loop is reported alongside, wall-only and
/// non-deterministic.
///
/// Besides the closed queue (every query available at t = 0), RunWorkload
/// runs *open-loop* service-mode workloads (DESIGN.md "Open-loop service
/// mode"): WorkloadOptions::arrival describes an arrival process
/// (exec/arrival.h), queries become admissible only once their simulated
/// arrival instant is reached, and each query's latency decomposes into
/// queue wait (arrival -> first dispatch) plus in-service span (first
/// dispatch -> completion), summarized as p50/p95/p99/max tails in the
/// report. Optionally an adaptive admission controller (exec/admission.h)
/// tunes the effective concurrency limit below `max_concurrent` from
/// per-quantum interference feedback, with a floor-of-one progress
/// guarantee. Arrivals, adaptive admission, shared-L3 contention and
/// faults are all options of the one event loop, so every latency figure
/// is bit-stable and exactly replayable via SimulateWorkloadSchedule.

namespace nipo {

/// \brief Admission-control policy of the workload scheduler. Policies
/// act at *admission* time (which pending query takes a freed slot); the
/// ready queue of admitted queries stays round-robin in every policy, so
/// in-flight queries always time-share the simulated cores fairly.
enum class SchedulePolicy : int {
  /// Spec order (the default).
  kFifo = 0,
  /// Cache-footprint-aware co-scheduling: admit the earliest pending
  /// query whose estimated footprint fits in the shared-L3 budget left
  /// by the in-flight queries' estimates (each capped at L3 capacity).
  /// Only the estimates count, never live occupancy, so a replay of the
  /// recorded quanta admits exactly as the live run did. If nothing fits,
  /// the slot stays idle until a completion frees budget — except when
  /// *nothing* is in flight, where the front query is admitted regardless
  /// so the workload always makes progress.
  kFootprintAware,
};

std::string_view SchedulePolicyToString(SchedulePolicy policy);

/// \brief Scheduling options of a workload execution.
struct WorkloadOptions {
  /// Simulated cores (>= 1) the event loop dispatches quanta to. Execution
  /// itself always runs on the calling thread; this shapes only the
  /// simulated schedule.
  size_t num_threads = 1;
  /// Admission control: maximum queries in flight (>= 1). Queries are
  /// admitted in spec order as slots free up.
  size_t max_concurrent = 1;
  /// Vectors a dispatched query executes before yielding back to the
  /// ready queue (the scheduling quantum).
  size_t burst_vectors = 1;
  /// Admission-control policy (see SchedulePolicy).
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// Shared-L3 contention modelling (DESIGN.md Section 6). When true,
  /// every query machine keeps its private L1/L2 but routes L3 fills
  /// through one SharedCacheDomain sized like the prototype's L3, so
  /// concurrent queries evict each other's lines and the per-query
  /// counters show the interference. Quanta run at their simulated
  /// dispatch points, in event order, which makes the L3 interleaving —
  /// and every counter — a pure function of the schedule. When false
  /// (default), queries run interference-free, bit-identical to solo
  /// runs.
  bool contention = false;
  /// Contention-mode self-audit: after every quantum, NIPO_CHECK the
  /// domain's accounting invariants (per-owner occupancy sums to the
  /// occupied line count; displaced lines equal charged evictions).
  /// Costs a full L3 scan per quantum; tests enable it, benches do not.
  bool audit_contention = false;
  /// Arrival process of the workload (exec/arrival.h). kClosed (default)
  /// is the closed queue; kPoisson enqueues query i only at its generated
  /// simulated arrival instant and reports per-query latency = queue wait
  /// + in-service span.
  ArrivalSpec arrival;
  /// Adaptive admission (exec/admission.h): tune the effective
  /// concurrency limit within [1, max_concurrent] from per-quantum
  /// interference feedback instead of pinning it at max_concurrent.
  /// Composes with `contention` (eviction and occupancy feedback) and
  /// either arrival kind.
  bool adaptive_admission = false;
  /// Seeded fault injection (exec/faults.h; DESIGN.md Section 9). The
  /// default plan injects nothing; an enabled plan's fault timing is part
  /// of the deterministic schedule.
  FaultPlan faults;
  /// Retry policy for transient (retryable) faults: capped exponential
  /// backoff in simulated time. max_attempts = 1 (default) disables
  /// retry.
  RetryPolicy retry;
  /// Deadline-aware admission shedding (DeadlineShedder, exec/
  /// admission.h): once calibrated by completed queries, admission picks
  /// predicted to miss their deadline are rejected as
  /// QueryOutcome::kShed instead of burning core time and dying at a
  /// vector boundary.
  bool shed_deadline = false;
};

/// \brief One query of a multi-query workload: what to compute
/// (QuerySpec) plus how to run it. Its scheduling estimates — the work
/// score of deadline shedding and the L3 footprint of kFootprintAware —
/// are separate ScheduleTaskInfo records, which Engine::Execute derives
/// from the cost model (cost/cache_model.h) against the registered
/// tables.
struct WorkloadQuery {
  /// Display name for reports (empty -> "q<index>").
  std::string name;
  QuerySpec query;
  /// Run under progressive optimization (otherwise fixed-order baseline).
  bool progressive = false;
  /// Progressive settings; `config.vector_size` is also the vector size
  /// of baseline queries.
  ProgressiveConfig config;
  /// Simulated deadline relative to arrival (0 = none). A query past its
  /// deadline is killed cooperatively at the next vector boundary
  /// (QueryOutcome::kDeadlineExceeded) with its partial-progress counters
  /// kept; with WorkloadOptions::shed_deadline it may instead be shed at
  /// admission.
  double sim_deadline_msec = 0;
};

/// \brief A workload: the query queue plus its scheduling options.
struct WorkloadSpec {
  std::vector<WorkloadQuery> queries;
  WorkloadOptions options;
};

/// \brief How one scheduling quantum ended (recorded per quantum in the
/// replay trace). kNormal quanta either complete the query or yield it
/// back to the ready queue; every other fate ends the current *attempt*
/// at the quantum's completion event.
enum class QuantumFate : uint8_t {
  kNormal = 0,          ///< ran its burst (or finished the query)
  kTransientFault = 1,  ///< retryable failure at the quantum's end
  kHardFault = 2,       ///< non-retryable failure (latched runtime error)
  kDeadline = 3,        ///< killed at a vector boundary past the deadline
};

/// \brief Per-query outcome of a workload execution.
struct WorkloadQueryReport {
  std::string name;
  bool progressive = false;
  /// Results and full-run counters on the query's machine. Without
  /// contention, bit-identical to the solo single-threaded run.
  DriveResult drive;
  /// Progressive-only: the PEO trace of this query's private optimizer
  /// (empty for baseline queries).
  std::vector<PeoChange> changes;
  size_t num_optimizations = 0;
  std::vector<double> last_estimate;
  std::vector<size_t> final_order;
  /// Simulated schedule: arrival instant, first dispatch and completion
  /// on the simulated cores. In the closed queue every arrival is 0 and
  /// latency equals sim_finish_msec; in open-loop modes the latency
  /// decomposition is
  ///   sim_latency_msec = sim_queue_wait_msec + (finish - start)
  /// with sim_queue_wait_msec = sim_start_msec - sim_arrival_msec, exact
  /// in floating point by construction.
  double sim_arrival_msec = 0;
  double sim_start_msec = 0;
  double sim_finish_msec = 0;
  double sim_queue_wait_msec = 0;
  double sim_latency_msec = 0;
  /// Scheduling quanta this query was dispatched in.
  size_t quanta = 0;
  /// Per-quantum simulated durations (the schedule-replay input; exposed
  /// so tests can cross-check live schedules against
  /// SimulateWorkloadSchedule). The four quantum_* arrays are parallel:
  /// element k of each forms the QuantumTrace of quantum k.
  std::vector<double> quantum_msec;
  /// Per-quantum shared-L3 evictions suffered inside the quantum's
  /// counter window (parallel to quantum_msec; all zero when
  /// contention=off). Together with quantum_msec and quantum_occupancy
  /// this is the complete QuantumTrace replay input of adaptive runs.
  std::vector<uint64_t> quantum_evictions;
  /// Per-quantum live shared-L3 occupancy after the quantum: lines owned
  /// by queries still in flight (finished owners' residue excluded), the
  /// adaptive controller's crowding signal. Parallel to quantum_msec;
  /// all zero when contention=off.
  std::vector<uint64_t> quantum_occupancy;
  /// Contention-mode occupancy gauges (lines owned in the shared L3),
  /// sampled when the query's last quantum finished; zero when
  /// contention=off.
  uint64_t shared_l3_peak_occupancy_lines = 0;
  uint64_t shared_l3_final_occupancy_lines = 0;
  /// Terminal state of the query (exec/faults.h). Anything but kOk means
  /// `drive` holds the partial progress of the final attempt (counters
  /// and tuples accrued before the kill/failure; zero for kShed).
  QueryOutcome outcome = QueryOutcome::kOk;
  /// Execution attempts started (1 without faults; 0 for shed queries).
  size_t attempts = 1;
  /// Total simulated backoff wait between failed attempts; part of the
  /// latency decomposition:
  ///   sim_latency = sim_queue_wait + sim_backoff + in-service time.
  double sim_backoff_msec = 0;
  /// The error behind a kFailed outcome (OK otherwise).
  Status error;
  /// Per-quantum fates (parallel to quantum_msec): with it, the recorded
  /// quanta form the complete fault-mode QuantumTrace replay input —
  /// fates mark where attempts ended, and the replay reconstructs retry
  /// backoffs from the RetryPolicy alone.
  std::vector<QuantumFate> quantum_fate;
};

/// \brief Aggregate outcome of a workload execution.
struct WorkloadReport {
  std::vector<WorkloadQueryReport> queries;
  /// Completion time of the last query in the simulated schedule
  /// (num_threads simulated cores, the configured admission and
  /// round-robin policy).
  double sim_makespan_msec = 0;
  /// queries.size() / sim_makespan; the workload throughput headline.
  double sim_queries_per_sec = 0;
  /// Sum of per-query machine times: the simulated cost of running the
  /// workload one query at a time on one core (the serial baseline the
  /// makespan is compared against; speedup = sim_serial / sim_makespan).
  double sim_serial_msec = 0;
  /// Host wall-clock of the event loop (not simulated, not
  /// deterministic).
  double wall_msec = 0;
  double wall_queries_per_sec = 0;
  /// Peak number of queries simultaneously admitted (<= max_concurrent).
  size_t peak_in_flight = 0;
  /// Echo of the options the workload ran under.
  size_t num_threads = 0;
  size_t max_concurrent = 0;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  bool contention = false;
  /// Contention-mode shared-L3 geometry (lines) and total lines ever
  /// displaced from it; zero when contention=off.
  uint64_t shared_l3_capacity_lines = 0;
  uint64_t shared_l3_lines_displaced = 0;
  /// Arrival-process echo (kClosed / rate 0 for the closed queue).
  ArrivalKind arrival_kind = ArrivalKind::kClosed;
  double arrival_rate_qps = 0;
  /// Tail summaries over the per-query simulated latencies and queue
  /// waits (simulated-time gauges, bit-stable; docs/COUNTERS.md). In the
  /// closed queue latency == completion time, so these summarize
  /// sim_finish_msec.
  LatencySummary latency;
  LatencySummary queue_wait;
  /// Adaptive-admission echoes (exec/admission.h); limit fields are 0
  /// when adaptive_admission=off.
  bool adaptive_admission = false;
  size_t admission_final_limit = 0;
  size_t admission_min_limit = 0;
  size_t admission_increases = 0;
  size_t admission_decreases = 0;
  /// Outcome census (sums to queries.size()) and the goodput headline:
  /// completed-OK queries per simulated second. Fault-free runs have
  /// queries_ok == queries.size() and goodput == sim_queries_per_sec.
  size_t queries_ok = 0;
  size_t queries_failed = 0;
  size_t queries_deadline_exceeded = 0;
  size_t queries_shed = 0;
  double sim_goodput_qps = 0;
  /// Retry totals: attempts beyond each query's first, and the summed
  /// simulated backoff waits.
  size_t total_retries = 0;
  double total_backoff_msec = 0;
};

/// \brief The deterministic simulated schedule of a workload: what the
/// event loop produced live, or replayed from recorded quanta.
struct SimSchedule {
  std::vector<double> arrival_msec;  ///< arrival instant per query (0 if
                                     ///< closed)
  std::vector<double> start_msec;    ///< first dispatch per query
  std::vector<double> finish_msec;   ///< completion per query
  /// Admission queue wait: start - arrival, per query.
  std::vector<double> queue_wait_msec;
  /// End-to-end latency: queue_wait + (finish - start), per query —
  /// exact in floating point by construction.
  std::vector<double> latency_msec;
  double makespan_msec = 0;
  /// Fault-mode outputs (all-kOk / all-1 / all-0 without faults): the
  /// terminal outcome, attempts started, and total simulated backoff per
  /// query. A live run and its trace replay must agree on these exactly
  /// (tests/service_faults_test.cc).
  std::vector<QueryOutcome> outcome;
  std::vector<size_t> attempts;
  std::vector<double> backoff_msec;
};

/// \brief Scheduling estimates of one query, the static per-query input
/// of admission in a live run and in its replay.
struct ScheduleTaskInfo {
  /// Relative work score: deadline shedding prices a query's service
  /// time from it (DeadlineShedder in exec/admission.h).
  double work = 0;
  /// Estimated L3-resident working set (SchedulePolicy::kFootprintAware):
  /// the bytes this query re-references and would like to keep in L3.
  uint64_t footprint_bytes = 0;
};

/// \brief Admission-policy configuration of a schedule replay.
struct SchedulePolicyConfig {
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// Footprint budget of kFootprintAware (0 = unlimited, which
  /// degenerates to FIFO).
  uint64_t l3_capacity_bytes = 0;
  /// Per-query info; empty means all-default (every query identical).
  std::vector<ScheduleTaskInfo> tasks;
};

/// \brief One recorded scheduling quantum: its simulated duration, the
/// shared-L3 evictions the query suffered inside the quantum's counter
/// window, and the live shared-L3 occupancy (lines owned by in-flight
/// queries) after the quantum (both 0 when contention=off). The complete
/// replay input of a quantum: durations rebuild the schedule, evictions
/// and occupancy rebuild the adaptive controller's decision sequence.
struct QuantumTrace {
  double duration_msec = 0;
  uint64_t evictions_suffered = 0;
  uint64_t occupancy_lines = 0;
  /// How the quantum ended (QuantumFate::kNormal outside fault mode).
  /// Fates mark where attempts ended, making retries replayable without
  /// redrawing faults.
  QuantumFate fate = QuantumFate::kNormal;
};

/// \brief Adaptive-admission input of a schedule replay: the shared-L3
/// geometry behind the controller's eviction and occupancy signals (0
/// when contention=off).
struct AdaptiveAdmissionSpec {
  uint64_t l3_capacity_lines = 0;
};

/// \brief Fault-mode inputs of a schedule replay (DESIGN.md Section 9):
/// the retry policy behind recorded kTransientFault fates, the per-query
/// deadlines (relative to arrival; 0 = none) and the shedding switch —
/// everything the event loop needs to reconstruct retry backoffs and
/// admission-shedding decisions exactly as the live run took them. The
/// fault *events* themselves are not re-drawn: the recorded QuantumTrace
/// fates already encode them.
struct ServiceFaultSpec {
  RetryPolicy retry;
  /// Per-query deadline relative to arrival (empty = none anywhere).
  std::vector<double> deadline_msec;
  bool shed_deadline = false;
};

/// \brief Replays a workload's schedule from its recorded quanta
/// (`quanta[q]` holds query q's QuantumTraces) through the live driver's
/// own event loop: admission picked by `config.policy` into at most
/// `max_concurrent` slots, a round-robin ready queue, dispatch to the
/// earliest-free of `num_threads` simulated cores. Arrivals
/// (`arrival_msec[q]`, non-decreasing in q; empty means closed queue)
/// gate admission; when `adaptive` is non-null, an AdmissionController
/// rebuilt from the recorded quantum traces evolves the effective
/// concurrency limit exactly as the live run did.
///
/// Faults: a non-null `faults` interprets the recorded QuantumTrace
/// fates — kTransientFault quanta re-enter the ready queue after their
/// reconstructed backoff (until the retry budget is spent), kill fates
/// complete the query — and re-derives shedding, reproducing the live
/// run's outcomes, attempts, backoff waits and timing bit-identically
/// (shed queries carry empty traces and are never dispatched).
SimSchedule SimulateWorkloadSchedule(
    const std::vector<std::vector<QuantumTrace>>& quanta,
    const std::vector<double>& arrival_msec, size_t num_threads,
    size_t max_concurrent, const SchedulePolicyConfig& config,
    const AdaptiveAdmissionSpec* adaptive = nullptr,
    const ServiceFaultSpec* faults = nullptr);

/// \brief Compiles a query's pipeline against the machine it runs on.
using QueryCompiler = std::function<Result<std::unique_ptr<PipelineExecutor>>(
    const QuerySpec& query, Pmu* pmu)>;

/// \brief Executes every query of `spec` to completion through the event
/// loop. Every query machine is `prototype.CloneFresh()`; `compile` is
/// called once per query against a scratch machine, to validate, and then
/// once per attempt. `estimates` holds one ScheduleTaskInfo per query.
/// Compile and validation errors of *any* query surface before execution
/// starts.
Result<WorkloadReport> RunWorkload(
    const Pmu& prototype, const WorkloadSpec& spec,
    const std::vector<ScheduleTaskInfo>& estimates,
    const QueryCompiler& compile);

}  // namespace nipo
