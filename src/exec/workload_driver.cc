#include "exec/workload_driver.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <queue>

#include "common/logging.h"
#include "hw/shared_cache.h"

/// \file workload_driver.cc
/// Multi-query workload scheduling (DESIGN.md "Workload execution",
/// Section 6 "Shared-cache contention", Section 7 "Open-loop service
/// mode"): policy-driven admission control, a vector-granular round-robin
/// ready queue, per-query private machines and optimizers stepping the
/// exact single-query driver sequence, and one event-driven schedule core
/// that serves both roles — the live executor, which runs each quantum
/// *inside* the event loop at its simulated dispatch point, and the
/// replay of recorded quanta (SimulateWorkloadSchedule). Open-loop
/// arrival release, the adaptive admission limit, the shared-L3 domain
/// and fault handling are all options of that one loop.

namespace nipo {

std::string_view SchedulePolicyToString(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo:
      return "fifo";
    case SchedulePolicy::kSrwf:
      return "srwf";
    case SchedulePolicy::kPriority:
      return "priority";
    case SchedulePolicy::kFootprintAware:
      return "footprint";
  }
  return "unknown";
}

namespace {

/// Mutable execution state of one admitted query. Everything runs on the
/// event loop's host thread, one quantum at a time.
struct QueryRun {
  const WorkloadTask* task = nullptr;

  /// The query's private machine (a fresh prototype clone per attempt).
  std::unique_ptr<Pmu> pmu;
  std::unique_ptr<PipelineExecutor> exec;
  std::unique_ptr<ProgressiveOptimizer> optimizer;
  /// Feeds each vector's sample to `optimizer` (null for baseline tasks).
  VectorHook hook;

  /// Full-run counter window, opened at admission (the solo drivers read
  /// their machine once at Run() entry; admission is that point here).
  PmuCounters run_begin;
  size_t next_row = 0;
  size_t vector_index = 0;
  DriveResult drive;

  /// Per-quantum replay trace: simulated durations, shared-L3 evictions
  /// suffered, live shared-L3 occupancy after the quantum (both zero when
  /// contention=off) and fates, all parallel.
  std::vector<double> quantum_msec;
  std::vector<uint64_t> quantum_evictions;
  std::vector<uint64_t> quantum_occupancy;
  std::vector<QuantumFate> quantum_fate;
  size_t quanta = 0;
  /// Contention mode: occupancy gauges sampled at the last quantum.
  uint64_t peak_occupancy_lines = 0;
  uint64_t final_occupancy_lines = 0;

  /// The error behind a kFailed outcome (the event loop decides the
  /// outcome itself).
  Status error;
};

/// Executes the next vector of `run` through the solo driver's own step
/// (DriveVector): baseline tasks execute the range bare; progressive
/// tasks take the charged counter-read pair around it and feed the sample
/// to the query's private optimizer, which may Reorder() for subsequent
/// vectors.
void ExecuteOneVector(QueryRun* run) {
  const size_t begin = run->next_row;
  const size_t end =
      std::min(begin + run->task->config.vector_size, run->exec->num_rows());
  DriveVector(run->exec.get(), begin, end, run->vector_index, run->hook,
              &run->drive);
  ++run->vector_index;
  run->next_row = end;
}

constexpr size_t kNoPick = static_cast<size_t>(-1);

double TaskWork(const SchedulePolicyConfig& cfg, size_t q) {
  return cfg.tasks.empty() ? 0.0 : cfg.tasks[q].work;
}

int TaskPriority(const SchedulePolicyConfig& cfg, size_t q) {
  return cfg.tasks.empty() ? 0 : cfg.tasks[q].priority;
}

/// A query's footprint claim against the L3 budget, capped at capacity:
/// a query streaming more than the whole L3 can at most occupy the whole
/// L3, and capping is what lets such a query ever be admitted at all.
uint64_t CappedFootprint(const SchedulePolicyConfig& cfg, size_t q) {
  if (cfg.tasks.empty()) return 0;
  return std::min(cfg.tasks[q].footprint_bytes, cfg.l3_capacity_bytes);
}

/// Picks the next query to admit: a position into `pending` (spec-order
/// subsequence of not-yet-admitted queries), or kNoPick to leave the
/// admission slot empty until the next completion. Pure function of the
/// pending/in-flight sets and the policy inputs — which is what makes
/// admission order identical between a live run and its replay.
size_t PickNextAdmission(
    const std::vector<size_t>& pending, const SchedulePolicyConfig& cfg,
    const std::vector<size_t>& in_flight,
    const std::function<uint64_t(size_t)>& live_footprint) {
  if (pending.empty()) return kNoPick;
  switch (cfg.policy) {
    case SchedulePolicy::kFifo:
      return 0;
    case SchedulePolicy::kSrwf: {
      size_t best = 0;
      for (size_t i = 1; i < pending.size(); ++i) {
        if (TaskWork(cfg, pending[i]) < TaskWork(cfg, pending[best])) {
          best = i;
        }
      }
      return best;
    }
    case SchedulePolicy::kPriority: {
      size_t best = 0;
      for (size_t i = 1; i < pending.size(); ++i) {
        if (TaskPriority(cfg, pending[i]) > TaskPriority(cfg, pending[best])) {
          best = i;
        }
      }
      return best;
    }
    case SchedulePolicy::kFootprintAware: {
      if (cfg.l3_capacity_bytes == 0) return 0;
      uint64_t used = 0;
      for (const size_t q : in_flight) {
        uint64_t f = CappedFootprint(cfg, q);
        if (live_footprint != nullptr) {
          // Live occupancy feedback: a query that grew past its estimate
          // claims what it actually holds.
          f = std::max(f,
                       std::min(live_footprint(q), cfg.l3_capacity_bytes));
        }
        used += f;
      }
      const uint64_t budget =
          cfg.l3_capacity_bytes > used ? cfg.l3_capacity_bytes - used : 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (CappedFootprint(cfg, pending[i]) <= budget) return i;
      }
      // Nothing fits. Defer if someone is running (a completion will free
      // budget); admit the front regardless if the machine is idle, so
      // the workload always makes progress.
      return in_flight.empty() ? 0 : kNoPick;
    }
  }
  return 0;
}

/// What one dispatched quantum produced: its simulated duration, the
/// shared-L3 evictions suffered inside it and the live shared-L3
/// occupancy after it (adaptive-controller feedback; zero without
/// contention), and whether it completed the query.
struct QuantumOutcome {
  double duration_msec = 0;
  uint64_t evictions_suffered = 0;
  uint64_t occupancy_lines = 0;
  bool done = false;
  /// How the quantum ended; anything but kNormal ends the attempt (the
  /// loop decides whether a retry follows). `done` is only meaningful
  /// for kNormal fates.
  QuantumFate fate = QuantumFate::kNormal;
};

/// Optional side-effect hooks of the event loop (used by the live
/// executor; the pure replay passes none).
struct EventLoopHooks {
  /// A query was admitted: put it on its machine.
  std::function<void(size_t)> on_admit;
  /// A transient fault is being retried: reset the query's execution
  /// state (fresh machine, recompiled pipeline, fresh optimizer) so the
  /// next dispatch restarts the query from row zero.
  std::function<void(size_t)> on_retry;
  std::function<uint64_t(size_t)> live_footprint;
};

/// The event-driven schedule core shared by the replay and the live
/// executor: admission picked by `cfg.policy` into at most
/// `max_concurrent` slots (lowered live by `controller` when adaptive),
/// a round-robin ready queue, dispatch of the front query to the
/// earliest-free of `num_threads` simulated workers. `run_quantum(q)` is
/// called at q's dispatch points *in dispatch order* — for a replay it
/// returns recorded durations; for a live run it actually executes the
/// quantum, which is also what serializes the shared-L3 interleaving
/// into event order under contention.
///
/// Open-loop mode: `arrival_msec` (empty = closed queue; otherwise
/// non-decreasing, one instant per query) gates when each query joins
/// the pending set. The loop advances the clock to the next arrival when
/// idle, and at equal times releases arrivals *before* processing the
/// completion event — so the rate -> infinity limit (all arrivals at
/// t = 0) reproduces the closed queue exactly.
///
/// Adaptive mode: a non-null `controller` is fed every quantum
/// completion in event order (duration, evictions, occupancy) and its
/// limit() caps admissions from then on. Both the live run and the
/// trace replay feed it the same sequence, so the decisions — and hence
/// the schedule — are bit-identical.
///
/// Ties in completion time break by dispatch sequence, making the loop
/// fully deterministic.
///
/// Faults: run_quantum reports each quantum's fate. kTransientFault
/// attempts retry after a reconstructed capped-exponential backoff
/// (re-entering the ready queue at fail time + backoff, keeping the
/// admission slot) until the retry budget is spent;
/// kill fates and exhausted retries complete the query with the matching
/// outcome. With shedding on, admission picks whose predicted completion
/// misses their deadline are rejected (kShed) without ever dispatching —
/// the DeadlineShedder calibrates from completed-OK queries' scheduled
/// time, so live runs and trace replays shed identically. The default
/// spec (one attempt, no deadlines, no shedding) makes every non-kNormal
/// fate terminal and never sheds.
SimSchedule RunEventSchedule(
    size_t n, size_t num_threads, size_t max_concurrent,
    const SchedulePolicyConfig& cfg, const std::vector<double>& arrival_msec,
    AdmissionController* controller, const ServiceFaultSpec& faults,
    const std::function<QuantumOutcome(size_t, double)>& run_quantum,
    const EventLoopHooks& hooks, size_t* peak_in_flight_out) {
  SimSchedule schedule;
  schedule.arrival_msec.assign(n, 0.0);
  schedule.start_msec.assign(n, 0.0);
  schedule.finish_msec.assign(n, 0.0);
  schedule.queue_wait_msec.assign(n, 0.0);
  schedule.latency_msec.assign(n, 0.0);
  schedule.outcome.assign(n, QueryOutcome::kOk);
  schedule.attempts.assign(n, 1);
  schedule.backoff_msec.assign(n, 0.0);
  if (n == 0) return schedule;
  NIPO_CHECK(num_threads > 0);
  NIPO_CHECK(max_concurrent > 0);
  if (!arrival_msec.empty()) {
    NIPO_CHECK(arrival_msec.size() == n);
    for (size_t i = 0; i + 1 < n; ++i) {
      NIPO_CHECK(arrival_msec[i] <= arrival_msec[i + 1]);
    }
    schedule.arrival_msec = arrival_msec;
  }

  struct Event {
    double time = 0;
    uint64_t seq = 0;
    size_t query = 0;
    bool done = false;
    QuantumFate fate = QuantumFate::kNormal;
    /// The completed quantum, for the controller's feedback.
    double duration_msec = 0;
    uint64_t evictions_suffered = 0;
    uint64_t occupancy_lines = 0;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> running;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      free_workers;
  for (size_t w = 0; w < num_threads; ++w) free_workers.push(0.0);

  struct ReadyEntry {
    size_t query = 0;
    double since = 0;  ///< when the query (re-)entered the ready queue
  };
  std::deque<ReadyEntry> ready;
  std::vector<size_t> pending;
  pending.reserve(n);
  size_t next_arrival = 0;  ///< queries [next_arrival, n) not yet arrived
  std::vector<size_t> in_flight;
  std::vector<bool> started(n, false);
  size_t peak_in_flight = 0;
  uint64_t seq = 0;

  // Fault-mode state: retry budget, per-query scheduled service time
  // (the shedder's calibration basis — identical between a live run and
  // its replay, unlike machine time, which stalls inflate away from the
  // schedule), and the admission shedder.
  const size_t max_attempts = std::max<size_t>(1, faults.retry.max_attempts);
  auto deadline_of = [&](size_t q) {
    return q < faults.deadline_msec.size() ? faults.deadline_msec[q] : 0.0;
  };
  std::vector<double> service_msec(n, 0.0);
  DeadlineShedder shedder;
  const bool shedding = faults.shed_deadline;

  // Arrival schedules are non-decreasing in query index, so releasing in
  // index order keeps `pending` in spec order — the same order the
  // closed queue starts from.
  auto release = [&](double now) {
    while (next_arrival < n && schedule.arrival_msec[next_arrival] <= now) {
      pending.push_back(next_arrival++);
    }
  };
  auto effective_limit = [&] {
    return controller != nullptr ? std::min(max_concurrent, controller->limit())
                                 : max_concurrent;
  };
  auto admit = [&](double now) {
    while (in_flight.size() < effective_limit()) {
      const size_t pos =
          PickNextAdmission(pending, cfg, in_flight, hooks.live_footprint);
      if (pos == kNoPick) break;
      const size_t query = pending[pos];
      // Deadline-aware shedding: a pick predicted to miss its deadline
      // is rejected here — early, before it claims a machine — instead
      // of being admitted only to die at a vector boundary later.
      if (shedding &&
          shedder.ShouldShed(now, schedule.arrival_msec[query],
                             deadline_of(query), TaskWork(cfg, query),
                             in_flight.size(), num_threads)) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pos));
        started[query] = true;
        schedule.start_msec[query] = now;
        schedule.finish_msec[query] = now;
        schedule.queue_wait_msec[query] =
            now - schedule.arrival_msec[query];
        schedule.latency_msec[query] = schedule.queue_wait_msec[query];
        schedule.makespan_msec = std::max(schedule.makespan_msec, now);
        schedule.outcome[query] = QueryOutcome::kShed;
        schedule.attempts[query] = 0;
        continue;
      }
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pos));
      if (hooks.on_admit != nullptr) hooks.on_admit(query);
      in_flight.push_back(query);
      peak_in_flight = std::max(peak_in_flight, in_flight.size());
      ready.push_back({query, now});
    }
  };
  auto dispatch = [&] {
    while (!ready.empty() && !free_workers.empty()) {
      const ReadyEntry entry = ready.front();
      ready.pop_front();
      const double worker_free = free_workers.top();
      free_workers.pop();
      const double start = std::max(entry.since, worker_free);
      if (!started[entry.query]) {
        started[entry.query] = true;
        schedule.start_msec[entry.query] = start;
      }
      const QuantumOutcome out = run_quantum(entry.query, start);
      running.push({start + out.duration_msec, seq++, entry.query, out.done,
                    out.fate, out.duration_msec, out.evictions_suffered,
                    out.occupancy_lines});
    }
  };

  release(0.0);
  admit(0.0);
  dispatch();
  while (!running.empty() || next_arrival < n) {
    if (running.empty() ||
        (next_arrival < n &&
         schedule.arrival_msec[next_arrival] <= running.top().time)) {
      // Next happening is an arrival (or the machine is idle waiting for
      // one): advance the clock to it and release/admit/dispatch there.
      const double now = schedule.arrival_msec[next_arrival];
      release(now);
      admit(now);
      dispatch();
      continue;
    }
    const Event event = running.top();
    running.pop();
    free_workers.push(event.time);
    service_msec[event.query] += event.duration_msec;
    // Resolve the quantum's fate: completion (with which outcome), a
    // retry after backoff, or a plain yield back to the ready queue.
    bool complete = false;
    QueryOutcome outcome = QueryOutcome::kOk;
    switch (event.fate) {
      case QuantumFate::kNormal:
        complete = event.done;
        break;
      case QuantumFate::kTransientFault:
        if (schedule.attempts[event.query] < max_attempts) {
          // Capped exponential backoff in simulated time: the query
          // keeps its admission slot but re-enters the ready queue only
          // at fail time + backoff, restarting from scratch.
          const double backoff = RetryBackoffMsec(
              faults.retry, schedule.attempts[event.query]);
          ++schedule.attempts[event.query];
          schedule.backoff_msec[event.query] += backoff;
          if (hooks.on_retry != nullptr) hooks.on_retry(event.query);
          ready.push_back({event.query, event.time + backoff});
        } else {
          complete = true;
          outcome = QueryOutcome::kFailed;
        }
        break;
      case QuantumFate::kHardFault:
        complete = true;
        outcome = QueryOutcome::kFailed;
        break;
      case QuantumFate::kDeadline:
        complete = true;
        outcome = QueryOutcome::kDeadlineExceeded;
        break;
      case QuantumFate::kCancel:
        complete = true;
        outcome = QueryOutcome::kCancelled;
        break;
    }
    if (complete) {
      schedule.finish_msec[event.query] = event.time;
      // The latency decomposition, exact by construction: queue wait
      // (arrival -> first dispatch) plus in-service span (which in turn
      // splits into backoff_msec of waiting and execution).
      schedule.queue_wait_msec[event.query] =
          schedule.start_msec[event.query] -
          schedule.arrival_msec[event.query];
      schedule.latency_msec[event.query] =
          schedule.queue_wait_msec[event.query] +
          (event.time - schedule.start_msec[event.query]);
      schedule.makespan_msec = std::max(schedule.makespan_msec, event.time);
      schedule.outcome[event.query] = outcome;
      in_flight.erase(
          std::find(in_flight.begin(), in_flight.end(), event.query));
      if (shedding && outcome == QueryOutcome::kOk) {
        shedder.OnQueryDone(service_msec[event.query],
                            TaskWork(cfg, event.query));
      }
    } else if (event.fate == QuantumFate::kNormal) {
      ready.push_back({event.query, event.time});
    }
    if (controller != nullptr) {
      controller->OnQuantum(event.query, event.duration_msec,
                            event.evictions_suffered, event.occupancy_lines,
                            in_flight.size(), pending.size());
    }
    // Completions always free an admission slot — including kills and
    // failures, whose final quantum has done == false; with a
    // controller, a non-done quantum can also raise the limit, so
    // re-check admission after every event.
    if (complete || event.done || controller != nullptr) admit(event.time);
    dispatch();
  }
  if (peak_in_flight_out != nullptr) *peak_in_flight_out = peak_in_flight;
  return schedule;
}

/// Assembles the per-query reports and serial baseline out of finished
/// runs and the terminal outcomes the event loop decided; the caller
/// fills the schedule timing afterwards (ApplySchedule).
WorkloadReport AssembleReport(const std::vector<WorkloadTask>& tasks,
                              std::vector<QueryRun>* runs,
                              const WorkloadOptions& options,
                              const SimSchedule& schedule, double wall_msec,
                              size_t peak_in_flight) {
  const size_t n = tasks.size();
  WorkloadReport report;
  report.num_threads = options.num_threads;
  report.max_concurrent = options.max_concurrent;
  report.policy = options.policy;
  report.contention = options.contention;
  report.arrival_kind = options.arrival.kind;
  report.arrival_rate_qps = options.arrival.kind == ArrivalKind::kClosed
                                ? 0.0
                                : options.arrival.rate_qps;
  report.adaptive_admission = options.adaptive_admission;
  report.peak_in_flight = peak_in_flight;
  report.wall_msec = wall_msec;
  report.wall_queries_per_sec =
      wall_msec > 0 ? static_cast<double>(n) / (wall_msec / 1e3) : 0.0;
  report.queries.resize(n);
  for (size_t i = 0; i < n; ++i) {
    QueryRun& run = (*runs)[i];
    WorkloadQueryReport& q = report.queries[i];
    q.name = tasks[i].name.empty() ? "q" + std::to_string(i) : tasks[i].name;
    q.progressive = tasks[i].progressive;
    q.quanta = run.quanta;
    q.shared_l3_peak_occupancy_lines = run.peak_occupancy_lines;
    q.shared_l3_final_occupancy_lines = run.final_occupancy_lines;
    q.outcome = schedule.outcome[i];
    q.attempts = schedule.attempts[i];
    q.sim_backoff_msec = schedule.backoff_msec[i];
    q.error = run.error;
    q.quantum_fate = std::move(run.quantum_fate);
    if (run.exec == nullptr) {
      // Shed at admission: never dispatched, no machine, no execution
      // state — the row carries the outcome and nothing else.
      continue;
    }
    if (run.optimizer != nullptr) {
      ProgressiveReport prog = run.optimizer->Finish(std::move(run.drive));
      q.drive = std::move(prog.drive);
      q.changes = std::move(prog.changes);
      q.num_optimizations = prog.num_optimizations;
      q.last_estimate = std::move(prog.last_estimate);
      q.final_order = std::move(prog.final_order);
    } else {
      q.drive = std::move(run.drive);
      q.final_order = run.exec->current_order();
    }
    report.sim_serial_msec += q.drive.simulated_msec;
    q.quantum_msec = std::move(run.quantum_msec);
    q.quantum_evictions = std::move(run.quantum_evictions);
    q.quantum_occupancy = std::move(run.quantum_occupancy);
  }
  return report;
}

/// Copies the schedule into the report's per-query and headline fields,
/// including the latency/queue-wait tail summaries.
void ApplySchedule(const SimSchedule& schedule, WorkloadReport* report) {
  const size_t n = report->queries.size();
  LatencyDistribution latency;
  LatencyDistribution queue_wait;
  for (size_t i = 0; i < n; ++i) {
    WorkloadQueryReport& q = report->queries[i];
    q.sim_arrival_msec = schedule.arrival_msec[i];
    q.sim_start_msec = schedule.start_msec[i];
    q.sim_finish_msec = schedule.finish_msec[i];
    q.sim_queue_wait_msec = schedule.queue_wait_msec[i];
    q.sim_latency_msec = schedule.latency_msec[i];
    latency.Add(q.sim_latency_msec);
    queue_wait.Add(q.sim_queue_wait_msec);
  }
  report->sim_makespan_msec = schedule.makespan_msec;
  report->sim_queries_per_sec =
      schedule.makespan_msec > 0
          ? static_cast<double>(n) / (schedule.makespan_msec / 1e3)
          : 0.0;
  report->latency = latency.Summary();
  report->queue_wait = queue_wait.Summary();
  // Outcome census and the goodput headline (completed-OK queries per
  // simulated second). Fault-free runs count everything as kOk, making
  // goodput == sim_queries_per_sec.
  for (const WorkloadQueryReport& q : report->queries) {
    switch (q.outcome) {
      case QueryOutcome::kOk:
        ++report->queries_ok;
        break;
      case QueryOutcome::kDeadlineExceeded:
        ++report->queries_deadline_exceeded;
        break;
      case QueryOutcome::kCancelled:
        ++report->queries_cancelled;
        break;
      case QueryOutcome::kFailed:
        ++report->queries_failed;
        break;
      case QueryOutcome::kShed:
        ++report->queries_shed;
        break;
    }
    if (q.attempts > 1) report->total_retries += q.attempts - 1;
    report->total_backoff_msec += q.sim_backoff_msec;
  }
  report->sim_goodput_qps =
      report->sim_makespan_msec > 0
          ? static_cast<double>(report->queries_ok) /
                (report->sim_makespan_msec / 1e3)
          : 0.0;
}

}  // namespace

SimSchedule SimulateWorkloadSchedule(
    const std::vector<std::vector<QuantumTrace>>& quanta,
    const std::vector<double>& arrival_msec, size_t num_threads,
    size_t max_concurrent, const SchedulePolicyConfig& config,
    const AdaptiveAdmissionSpec* adaptive, const ServiceFaultSpec* faults) {
  const size_t n = quanta.size();
  if (n == 0) return SimSchedule{};
  NIPO_CHECK(config.tasks.empty() || config.tasks.size() == n);
  std::unique_ptr<AdmissionController> controller;
  if (adaptive != nullptr) {
    controller = std::make_unique<AdmissionController>(
        n, max_concurrent, adaptive->l3_capacity_lines, adaptive->config);
  }
  std::vector<size_t> next_quantum(n, 0);
  auto run_quantum = [&](size_t q, double /*start_msec*/) {
    QuantumOutcome out;
    if (next_quantum[q] < quanta[q].size()) {
      out.duration_msec = quanta[q][next_quantum[q]].duration_msec;
      out.evictions_suffered = quanta[q][next_quantum[q]].evictions_suffered;
      out.occupancy_lines = quanta[q][next_quantum[q]].occupancy_lines;
      // The recorded fate replays where the attempt ended; the event loop
      // reconstructs the backoff from the RetryPolicy alone.
      out.fate = quanta[q][next_quantum[q]].fate;
    }
    ++next_quantum[q];
    out.done = next_quantum[q] >= quanta[q].size();
    return out;
  };
  const ServiceFaultSpec no_faults;
  return RunEventSchedule(n, num_threads, max_concurrent, config, arrival_msec,
                          controller.get(),
                          faults != nullptr ? *faults : no_faults, run_quantum,
                          EventLoopHooks{}, nullptr);
}

WorkloadDriver::WorkloadDriver(const Pmu& prototype, ExecutorFactory factory,
                               WorkloadOptions options)
    : prototype_(prototype.CloneFresh()),
      factory_(std::move(factory)),
      options_(options) {
  NIPO_CHECK(factory_ != nullptr);
}

SchedulePolicyConfig WorkloadDriver::PolicyConfig(
    const std::vector<WorkloadTask>& tasks) const {
  SchedulePolicyConfig cfg;
  cfg.policy = options_.policy;
  cfg.l3_capacity_bytes = prototype_.config().l3.capacity_bytes;
  cfg.tasks.reserve(tasks.size());
  for (const WorkloadTask& task : tasks) {
    cfg.tasks.push_back(
        {task.priority, task.estimated_work, task.footprint_bytes});
  }
  return cfg;
}

Result<WorkloadReport> WorkloadDriver::Run(
    const std::vector<WorkloadTask>& tasks) {
  if (tasks.empty()) {
    return Status::InvalidArgument("workload has no queries");
  }
  if (options_.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (options_.max_concurrent == 0) {
    return Status::InvalidArgument("max_concurrent must be positive");
  }
  if (options_.burst_vectors == 0) {
    return Status::InvalidArgument("burst_vectors must be positive");
  }
  for (const WorkloadTask& task : tasks) {
    if (task.config.vector_size == 0) {
      return Status::InvalidArgument("vector_size must be positive");
    }
    if (task.config.reopt_interval == 0) {
      return Status::InvalidArgument("reopt_interval must be positive");
    }
  }
  if (options_.arrival.kind != ArrivalKind::kClosed) {
    if (!(options_.arrival.rate_qps > 0)) {
      return Status::InvalidArgument("arrival rate_qps must be positive");
    }
    if (options_.arrival.kind == ArrivalKind::kBursty) {
      if (options_.arrival.burst_len == 0) {
        return Status::InvalidArgument("burst_len must be positive");
      }
      const double burst_rate = options_.arrival.burst_rate_qps > 0
                                    ? options_.arrival.burst_rate_qps
                                    : 4.0 * options_.arrival.rate_qps;
      if (!(burst_rate > options_.arrival.rate_qps)) {
        return Status::InvalidArgument(
            "burst_rate_qps must exceed rate_qps");
      }
    }
  }
  if (options_.adaptive_admission && options_.admission.epoch_quanta == 0) {
    return Status::InvalidArgument("admission epoch_quanta must be positive");
  }
  if (options_.faults.transient_fault_rate < 0 ||
      options_.faults.transient_fault_rate > 1) {
    return Status::InvalidArgument("transient_fault_rate must be in [0, 1]");
  }
  if (options_.faults.stall_rate < 0 || options_.faults.stall_rate > 1) {
    return Status::InvalidArgument("stall_rate must be in [0, 1]");
  }
  if (options_.faults.stall_rate > 0 && !(options_.faults.stall_factor >= 1)) {
    return Status::InvalidArgument("stall_factor must be >= 1");
  }
  if (options_.retry.max_attempts == 0) {
    return Status::InvalidArgument("retry max_attempts must be positive");
  }
  if (options_.retry.max_attempts > 1) {
    if (options_.retry.backoff_base_msec < 0) {
      return Status::InvalidArgument("backoff_base_msec must be >= 0");
    }
    if (options_.retry.backoff_cap_msec < options_.retry.backoff_base_msec) {
      return Status::InvalidArgument(
          "backoff_cap_msec must be >= backoff_base_msec");
    }
  }
  for (const WorkloadTask& task : tasks) {
    if (task.sim_deadline_msec < 0) {
      return Status::InvalidArgument("sim_deadline_msec must be >= 0");
    }
    if (task.sim_cancel_msec < 0) {
      return Status::InvalidArgument("sim_cancel_msec must be >= 0");
    }
  }

  const size_t n = tasks.size();
  // Validation pass: compile every task against a scratch machine and
  // apply its initial order, so unknown tables / bad orders surface
  // before anything executes. Admission-time compiles repeat the same
  // inputs and therefore cannot fail.
  {
    Pmu scratch = prototype_.CloneFresh();
    for (size_t i = 0; i < n; ++i) {
      NIPO_ASSIGN_OR_RETURN(std::unique_ptr<PipelineExecutor> exec,
                            factory_(i, &scratch));
      if (tasks[i].initial_order.has_value()) {
        NIPO_RETURN_NOT_OK(exec->Reorder(*tasks[i].initial_order));
      }
    }
  }

  // Every run executes inside the deterministic event loop: quanta run
  // serially on this thread at their simulated dispatch points, so the
  // schedule is exactly what SimulateWorkloadSchedule replays from the
  // recorded quanta.
  //
  // Contention mode: one shared L3, sized like the prototype's, with one
  // owner id per query (the query index). Machines keep their private
  // L1/L2. Null when contention=off — queries then run interference-free
  // (the event loop only shapes *when* quanta run, not what they cost).
  std::unique_ptr<SharedCacheDomain> domain;
  if (options_.contention) {
    domain = std::make_unique<SharedCacheDomain>(prototype_.config().l3);
    for (size_t i = 0; i < n; ++i) {
      domain->RegisterOwner(tasks[i].name.empty() ? "q" + std::to_string(i)
                                                  : tasks[i].name);
    }
  }
  // Open-loop arrival schedule (empty = closed queue: everything
  // admissible at t = 0).
  std::vector<double> arrivals;
  if (options_.arrival.kind != ArrivalKind::kClosed) {
    arrivals = GenerateArrivalTimes(options_.arrival, n);
  }
  // Adaptive admission: the live controller, fed by the event loop at
  // every quantum completion. Its replay twin is rebuilt from the
  // recorded QuantumTraces in SimulateWorkloadSchedule.
  std::unique_ptr<AdmissionController> controller;
  if (options_.adaptive_admission) {
    controller = std::make_unique<AdmissionController>(
        n, options_.max_concurrent,
        domain != nullptr ? domain->capacity_lines() : 0, options_.admission);
  }
  // Fault handling (DESIGN.md Section 9): the spec handed to the event
  // loop (retry budget, deadlines, shedding switch) plus the live
  // fault-draw coordinates. The default options give the default spec —
  // one attempt, no deadlines, no shedding — under which only a latched
  // runtime error ends a query early.
  ServiceFaultSpec fault_spec;
  fault_spec.retry = options_.retry;
  fault_spec.shed_deadline = options_.shed_deadline;
  for (const WorkloadTask& task : tasks) {
    fault_spec.deadline_msec.push_back(task.sim_deadline_msec);
  }
  const size_t max_attempts = options_.retry.max_attempts;
  std::vector<size_t> attempt_no(n, 0);
  std::vector<size_t> quantum_in_attempt(n, 0);
  constexpr double kNoKill = std::numeric_limits<double>::infinity();

  std::vector<QueryRun> runs(n);
  const SchedulePolicyConfig policy_cfg = PolicyConfig(tasks);

  // Puts query `index` on a fresh private machine (attached to the shared
  // L3 under contention), compiles its pipeline, applies its initial
  // order, starts its optimizer and opens its full-run counter window.
  // Admission and every retry go through here, so a retried attempt
  // restarts exactly like a first one; the failed attempt's machine and
  // execution state are discarded.
  auto start_attempt = [&](size_t index) {
    QueryRun& run = runs[index];
    run.task = &tasks[index];
    run.pmu = std::make_unique<Pmu>(prototype_.CloneFresh());
    if (domain != nullptr) {
      run.pmu->AttachSharedL3(domain.get(), static_cast<uint32_t>(index));
    }
    auto exec = factory_(index, run.pmu.get());
    NIPO_CHECK(exec.ok());  // the validation pass proved this compiles
    run.exec = std::move(exec.ValueOrDie());
    if (run.task->initial_order.has_value()) {
      NIPO_CHECK(run.exec->Reorder(*run.task->initial_order).ok());
    }
    run.optimizer.reset();
    run.hook = nullptr;
    if (run.task->progressive) {
      run.optimizer = std::make_unique<ProgressiveOptimizer>(run.exec.get(),
                                                             run.task->config);
      run.optimizer->Begin();
      run.hook = [optimizer = run.optimizer.get()](const VectorSample& s) {
        optimizer->OnVector(s);
      };
    }
    run.run_begin = run.pmu->Read();
    run.next_row = 0;
    run.vector_index = 0;
    run.drive = DriveResult{};
  };
  EventLoopHooks hooks;
  hooks.on_admit = start_attempt;
  hooks.on_retry = [&](size_t index) {
    ++attempt_no[index];
    quantum_in_attempt[index] = 0;
    runs[index].error = Status::OK();
    start_attempt(index);
  };
  if (domain != nullptr) {
    hooks.live_footprint = [&domain](size_t index) -> uint64_t {
      return domain->stats(static_cast<uint32_t>(index)).occupancy_lines *
             domain->line_size();
    };
  }

  // Completed queries whose shared-L3 residue must be excluded from the
  // live occupancy fed to the adaptive controller: a dead owner's lines
  // are reusable capacity, not a crowding signal.
  std::vector<uint32_t> finished_owners;

  auto run_quantum = [&](size_t index, double start) -> QuantumOutcome {
    QueryRun& run = runs[index];
    QuantumOutcome out;
    const size_t rows = run.exec->num_rows();
    // Fault draws are pure functions of (seed, query, attempt, quantum)
    // — schedule-independent, so every admission limit, worker count and
    // rerun sees the identical per-query fault sequence.
    FaultDraw draw;
    if (options_.faults.enabled()) {
      draw = DrawFault(options_.faults, index, attempt_no[index],
                       quantum_in_attempt[index]);
    }
    const double arrival = arrivals.empty() ? 0.0 : arrivals[index];
    const double deadline_at = tasks[index].sim_deadline_msec > 0
                                   ? arrival + tasks[index].sim_deadline_msec
                                   : kNoKill;
    const double cancel_at =
        tasks[index].sim_cancel_msec > 0 ? tasks[index].sim_cancel_msec
                                         : kNoKill;
    // Cooperative kill checks at every vector boundary, against
    // *scheduled* time: the quantum's dispatch instant plus the
    // (stall-scaled) simulated time of the vectors run so far. Without a
    // deadline or cancel point they never fire, and the per-vector
    // windows only read counters, so the whole-quantum window still
    // yields the exact duration.
    const CounterWindow quantum(run.pmu.get());
    double elapsed = 0;
    for (size_t b = 0; b < options_.burst_vectors && run.next_row < rows;
         ++b) {
      const double now = start + elapsed;
      if (now >= cancel_at) {
        out.fate = QuantumFate::kCancel;
        break;
      }
      if (now >= deadline_at) {
        out.fate = QuantumFate::kDeadline;
        break;
      }
      const CounterWindow vec(run.pmu.get());
      ExecuteOneVector(&run);
      if (!run.exec->error().ok()) break;  // latched; resolved below
      double vec_msec = run.pmu->ToMilliseconds(vec.Delta());
      if (draw.stall) vec_msec *= options_.faults.stall_factor;
      elapsed += vec_msec;
    }
    // Resolve the quantum's fate, in precedence order: a kill check
    // above, else a latched runtime error, else the injected faults
    // (poison over transient).
    if (out.fate == QuantumFate::kNormal) {
      if (!run.exec->error().ok()) {
        out.fate = QuantumFate::kHardFault;
        run.error = run.exec->error();
      } else if (draw.poison) {
        out.fate = QuantumFate::kHardFault;
        run.error = Status::Internal("fault injection: poison query");
      } else if (draw.transient) {
        out.fate = QuantumFate::kTransientFault;
        if (attempt_no[index] + 1 >= max_attempts) {
          run.error =
              Status::Internal("fault injection: retry budget exhausted");
        }
      }
    }
    // One side-effect-free window per quantum (CounterWindow reads, never
    // resets): the duration feeds the schedule, the evictions feed the
    // adaptive controller, and both are recorded as the quantum's replay
    // trace. The full-run window (run_begin -> done) spans exactly the
    // union of the quantum windows — nothing executes between quanta —
    // so per-query counters cannot double-count across admission or
    // quantum boundaries (asserted in tests/service_mode_test.cc).
    const PmuCounters delta = quantum.Delta();
    out.duration_msec = run.pmu->ToMilliseconds(delta);
    // A stalled quantum occupies its worker stall_factor times longer in
    // the schedule; the machine counters are untouched (the work did not
    // change — the worker was slow), so the inflation lives purely in
    // the recorded duration, which is also what the replay consumes.
    if (draw.stall) out.duration_msec *= options_.faults.stall_factor;
    out.evictions_suffered = delta.l3_evictions_suffered;
    run.quantum_msec.push_back(out.duration_msec);
    run.quantum_evictions.push_back(out.evictions_suffered);
    run.quantum_fate.push_back(out.fate);
    ++run.quanta;
    ++quantum_in_attempt[index];
    out.done = run.next_row >= rows;
    // The full-run counter window closes when the query leaves the
    // machine for good: normal completion, any kill or hard fault, or a
    // transient fault with no retry budget left. (A retried attempt
    // instead restarts on a fresh machine in hooks.on_retry.)
    const bool terminal =
        (out.fate == QuantumFate::kNormal && out.done) ||
        out.fate == QuantumFate::kHardFault ||
        out.fate == QuantumFate::kDeadline ||
        out.fate == QuantumFate::kCancel ||
        (out.fate == QuantumFate::kTransientFault &&
         attempt_no[index] + 1 >= max_attempts);
    if (terminal) {
      run.drive.num_vectors = run.vector_index;
      run.drive.total = run.pmu->Read() - run.run_begin;
      run.drive.simulated_msec = run.pmu->ToMilliseconds(run.drive.total);
      if (domain != nullptr) {
        run.peak_occupancy_lines = run.pmu->SharedL3PeakOccupancyLines();
        run.final_occupancy_lines = run.pmu->SharedL3OccupancyLines();
        // Detach so the machine outlives the (function-local) domain
        // safely; all shared-L3 reads happened above.
        run.pmu->AttachSharedL3(nullptr, 0);
        finished_owners.push_back(static_cast<uint32_t>(index));
      }
    }
    if (domain != nullptr) {
      // Live occupancy: resident lines minus finished owners' residue
      // (summed at current value — live queries may displace residue
      // later, so a snapshot at completion time would drift).
      uint64_t dead_lines = 0;
      for (const uint32_t o : finished_owners) {
        dead_lines += domain->stats(o).occupancy_lines;
      }
      out.occupancy_lines = domain->total_occupancy_lines() - dead_lines;
    }
    run.quantum_occupancy.push_back(out.occupancy_lines);
    if (domain != nullptr && options_.audit_contention) {
      // Accounting invariants: every resident line is owned by exactly
      // one query, and every displaced line was charged to exactly one.
      NIPO_CHECK(domain->total_occupancy_lines() ==
                 domain->level().occupied_lines());
      uint64_t charged = 0;
      for (uint32_t o = 0; o < domain->num_owners(); ++o) {
        charged += domain->stats(o).evictions_suffered +
                   domain->stats(o).self_evictions;
      }
      NIPO_CHECK(charged == domain->lines_displaced());
    }
    return out;
  };

  size_t peak_in_flight = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const SimSchedule schedule = RunEventSchedule(
      n, options_.num_threads, options_.max_concurrent, policy_cfg, arrivals,
      controller.get(), fault_spec, run_quantum, hooks, &peak_in_flight);
  const double wall_msec = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

  WorkloadReport report = AssembleReport(tasks, &runs, options_, schedule,
                                         wall_msec, peak_in_flight);
  ApplySchedule(schedule, &report);
  if (domain != nullptr) {
    report.shared_l3_capacity_lines = domain->capacity_lines();
    report.shared_l3_lines_displaced = domain->lines_displaced();
  }
  if (controller != nullptr) {
    report.admission_final_limit = controller->limit();
    report.admission_min_limit = controller->min_limit_seen();
    report.admission_increases = controller->increases();
    report.admission_decreases = controller->decreases();
  }
  return report;
}

}  // namespace nipo
