#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "exec/admission.h"
#include "exec/faults.h"
#include "exec/parallel_driver.h"
#include "exec/workload_driver.h"
#include "workload_replay.h"

// Fault-tolerance layer tests (DESIGN.md Section 9 "Fault-tolerant
// service"):
//  (a) zero-fault back-compat: a default FaultPlan leaves every fault
//      field inert and — even when retry routing forces the event-driven
//      path — per-query results stay bit-identical to solo runs;
//  (b) determinism: a fixed fault seed draws the identical per-query
//      outcomes, attempt counts and backoff waits across reruns,
//      max_concurrent {1, 2, 8} and worker counts, because fault draws
//      are pure functions of (seed, query, attempt, quantum);
//  (c) the fault semantics themselves: transient faults retry from
//      scratch under capped exponential backoff, stalls inflate the
//      schedule but never the machine counters, deadlines kill
//      cooperatively at vector boundaries with partial progress kept,
//      and deadline-aware shedding rejects doomed queries at admission;
//  (d) replay exactness: SimulateWorkloadSchedule fed the recorded
//      QuantumTrace fates and a ServiceFaultSpec reproduces outcomes,
//      attempts, backoffs and timing bit-identically, also with every
//      service option on at once (arrivals, contention, adaptive
//      admission, the footprint policy and all fault kinds);
//  (e) the Status propagation paths: FK-out-of-range data errors latch
//      on the executor and surface as failed Status (solo), a latched
//      error + partial counts (parallel), or QueryOutcome::kFailed with
//      partial progress (workload), plus the driver-level validation
//      Statuses. FkOutOfRangeFailsParallelEntryPoints is what exercises
//      the sharded driver's cross-thread error-abort flag.
// ci/check.sh runs this suite with NIPO_TEST_THREADS=1 and =8 and under
// ThreadSanitizer.

namespace nipo {
namespace {

std::vector<size_t> TestThreadCounts() {
  if (const char* env = std::getenv("NIPO_TEST_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return {static_cast<size_t>(parsed)};
  }
  return {1, 2, 4, 8};
}

constexpr size_t kDimRows = 10'001;

std::unique_ptr<Table> MakeFact(const std::string& name, size_t n,
                                uint64_t seed, size_t fk_range = kDimRows) {
  Prng prng(seed);
  std::vector<int32_t> a(n), b(n), c(n), fk(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    c[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(fk_range));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(t->AddColumn("b", std::move(b)).ok());
  EXPECT_TRUE(t->AddColumn("c", std::move(c)).ok());
  EXPECT_TRUE(t->AddColumn("fk", std::move(fk)).ok());
  EXPECT_TRUE(t->AddColumn("payload", std::move(payload)).ok());
  return t;
}

std::unique_ptr<Table> MakeDim(const std::string& name, size_t n,
                               uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> attr(n);
  for (auto& v : attr) v = static_cast<int32_t>(prng.NextBounded(100));
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("attr", std::move(attr)).ok());
  return t;
}

Engine MakeFaultEngine() {
  Engine engine(HwConfig::ScaledXeon(16));
  EXPECT_TRUE(engine.RegisterTable(MakeFact("fact_a", 40'000, 1)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeFact("fact_b", 60'000, 2)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeDim("dim", kDimRows, 3)).ok());
  // A fact table whose FK column exceeds the dimension: probing it is a
  // runtime data error that must latch, not abort.
  EXPECT_TRUE(
      engine.RegisterTable(MakeFact("bad_fact", 20'000, 4, 3 * kDimRows))
          .ok());
  return engine;
}

QuerySpec ScanQuery(const std::string& table, double a_lt, double b_lt,
                    double c_lt) {
  QuerySpec q;
  q.table = table;
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, a_lt}),
           OperatorSpec::Predicate({"b", CompareOp::kLt, b_lt}),
           OperatorSpec::Predicate({"c", CompareOp::kLt, c_lt})};
  q.payload_columns = {"payload"};
  return q;
}

QuerySpec JoinQuery(const Engine& engine, const std::string& table) {
  QuerySpec q;
  q.table = table;
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 80.0}),
           OperatorSpec::FkProbe({"fk", engine.GetTable("dim").ValueOrDie(),
                                  "attr", CompareOp::kLt, 40.0})};
  q.payload_columns = {"payload"};
  return q;
}

/// Six mixed queries (scans + joins, baseline + progressive) — the
/// heterogeneity the determinism claims must hold under.
WorkloadSpec MakeMixedWorkload(const Engine& engine) {
  WorkloadSpec spec;
  auto add = [&spec](std::string name, QuerySpec q, bool progressive,
                     size_t vector_size) {
    WorkloadQuery query;
    query.name = std::move(name);
    query.query = std::move(q);
    query.progressive = progressive;
    query.config.vector_size = vector_size;
    query.config.reopt_interval = 2;
    spec.queries.push_back(std::move(query));
  };
  add("scan_a_base", ScanQuery("fact_a", 90, 50, 2), false, 2'048);
  add("scan_a_prog", ScanQuery("fact_a", 90, 50, 2), true, 2'048);
  add("scan_b_prog", ScanQuery("fact_b", 90, 50, 2), true, 4'096);
  add("join_a_base", JoinQuery(engine, "fact_a"), false, 2'048);
  add("join_b_prog", JoinQuery(engine, "fact_b"), true, 2'048);
  add("scan_b_selective", ScanQuery("fact_b", 10, 90, 90), false, 1'024);
  return spec;
}

WorkloadSpec MakeHomogeneousWorkload(size_t n) {
  WorkloadSpec spec;
  for (size_t i = 0; i < n; ++i) {
    WorkloadQuery query;
    query.name = "scan" + std::to_string(i);
    query.query = ScanQuery("fact_a", 90, 50, 2);
    query.config.vector_size = 2'048;
    spec.queries.push_back(std::move(query));
  }
  return spec;
}

/// The per-query fault signature the determinism tests compare.
struct FaultSignature {
  QueryOutcome outcome;
  size_t attempts;
  double backoff_msec;
  bool operator==(const FaultSignature&) const = default;
};

std::vector<FaultSignature> SignaturesOf(const WorkloadReport& report) {
  std::vector<FaultSignature> sigs;
  for (const WorkloadQueryReport& q : report.queries) {
    sigs.push_back({q.outcome, q.attempts, q.sim_backoff_msec});
  }
  return sigs;
}

// ---------------------------------------------------------------------------
// (a) Zero-fault back-compat.
// ---------------------------------------------------------------------------

TEST(ServiceFaultsTest, FaultFreeRunKeepsFaultFieldsInert) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.queries_ok, report.queries.size());
  EXPECT_EQ(report.queries_failed, 0u);
  EXPECT_EQ(report.queries_deadline_exceeded, 0u);
  EXPECT_EQ(report.queries_shed, 0u);
  EXPECT_EQ(report.total_retries, 0u);
  EXPECT_EQ(report.total_backoff_msec, 0.0);
  EXPECT_EQ(report.sim_goodput_qps, report.sim_queries_per_sec);
  for (const WorkloadQueryReport& q : report.queries) {
    EXPECT_EQ(q.outcome, QueryOutcome::kOk) << q.name;
    EXPECT_EQ(q.attempts, 1u) << q.name;
    EXPECT_EQ(q.sim_backoff_msec, 0.0) << q.name;
    EXPECT_TRUE(q.error.ok()) << q.name;
    ASSERT_EQ(q.quantum_fate.size(), q.quantum_msec.size()) << q.name;
    for (const QuantumFate fate : q.quantum_fate) {
      EXPECT_EQ(fate, QuantumFate::kNormal) << q.name;
    }
  }
}

TEST(ServiceFaultsTest, RetryRoutingWithoutFaultsMatchesSoloBitwise) {
  // A retry budget that no fault ever uses changes nothing: results stay
  // bit-identical to solo runs.
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  spec.options.retry.max_attempts = 4;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.queries_ok, report.queries.size());
  EXPECT_EQ(report.total_retries, 0u);
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const DriveResult solo = SoloDrive(engine, spec.queries[i]);
    const WorkloadQueryReport& q = report.queries[i];
    EXPECT_EQ(q.outcome, QueryOutcome::kOk) << q.name;
    EXPECT_EQ(q.attempts, 1u) << q.name;
    EXPECT_EQ(q.drive.total, solo.total) << q.name;  // every counter
    EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;  // bitwise
    EXPECT_EQ(q.drive.qualifying_tuples, solo.qualifying_tuples) << q.name;
  }
}

// ---------------------------------------------------------------------------
// (b) Fault determinism across reruns x max_concurrent x worker counts.
// ---------------------------------------------------------------------------

TEST(ServiceFaultsTest, FaultScheduleIsIdenticalAcrossConcurrencyAndReruns) {
  Engine engine = MakeFaultEngine();
  std::vector<FaultSignature> reference;
  double reference_makespan = -1;
  for (size_t threads : TestThreadCounts()) {
    for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{8}}) {
      WorkloadSpec spec = MakeMixedWorkload(engine);
      spec.options.num_threads = threads;
      spec.options.max_concurrent = max_concurrent;
      spec.options.faults.seed = 99;
      spec.options.faults.transient_fault_rate = 0.05;
      spec.options.faults.stall_rate = 0.10;
      spec.options.faults.stall_factor = 3.0;
      spec.options.retry.max_attempts = 4;
      spec.options.retry.backoff_base_msec = 0.5;
      spec.options.retry.backoff_cap_msec = 8.0;
      auto first = engine.Execute(spec);
      ASSERT_TRUE(first.ok());
      auto second = engine.Execute(spec);
      ASSERT_TRUE(second.ok());
      const WorkloadReport& a = first.ValueOrDie();
      const WorkloadReport& b = second.ValueOrDie();
      // Reruns: the whole report repeats bit-identically.
      EXPECT_EQ(SignaturesOf(a), SignaturesOf(b));
      EXPECT_EQ(a.sim_makespan_msec, b.sim_makespan_msec);
      EXPECT_EQ(a.total_retries, b.total_retries);
      EXPECT_EQ(a.total_backoff_msec, b.total_backoff_msec);
      for (size_t i = 0; i < a.queries.size(); ++i) {
        EXPECT_EQ(a.queries[i].quantum_msec, b.queries[i].quantum_msec);
        EXPECT_EQ(a.queries[i].quantum_fate, b.queries[i].quantum_fate);
      }
      // Schedule independence: outcomes, attempts and backoffs are pure
      // functions of (seed, query, attempt, quantum), so every admission
      // limit and worker count draws the same per-query fault sequence.
      if (reference.empty()) {
        reference = SignaturesOf(a);
      } else {
        EXPECT_EQ(SignaturesOf(a), reference)
            << threads << " threads, max_concurrent " << max_concurrent;
      }
      // The makespan is schedule-dependent (it must be: concurrency
      // changes it) but bit-stable for a fixed configuration.
      if (threads == 1 && max_concurrent == 1) {
        if (reference_makespan < 0) {
          reference_makespan = a.sim_makespan_msec;
        } else {
          EXPECT_EQ(a.sim_makespan_msec, reference_makespan);
        }
      }
      // The fixture is tuned so faults actually fire.
      EXPECT_GT(a.total_retries, 0u);
      // A query that succeeded after retrying restarted from scratch on a
      // fresh machine, so its final-attempt counters are bit-identical to
      // a solo run.
      for (size_t i = 0; i < a.queries.size(); ++i) {
        const WorkloadQueryReport& q = a.queries[i];
        if (q.outcome != QueryOutcome::kOk) continue;
        const DriveResult solo = SoloDrive(engine, spec.queries[i]);
        EXPECT_EQ(q.drive.total, solo.total) << q.name;
        EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;
      }
    }
  }
}

TEST(ServiceFaultsTest, StallsInflateScheduleNotCounters) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  auto clean_result = engine.Execute(spec);
  ASSERT_TRUE(clean_result.ok());
  const WorkloadReport& clean = clean_result.ValueOrDie();

  // Every quantum stalls by exactly 4x: durations scale by a power of
  // two, so the whole simulated schedule scales exactly — while machine
  // counters are untouched (the work did not change; the worker was
  // slow).
  spec.options.faults.stall_rate = 1.0;
  spec.options.faults.stall_factor = 4.0;
  auto stalled_result = engine.Execute(spec);
  ASSERT_TRUE(stalled_result.ok());
  const WorkloadReport& stalled = stalled_result.ValueOrDie();
  ASSERT_EQ(stalled.queries.size(), clean.queries.size());
  for (size_t i = 0; i < clean.queries.size(); ++i) {
    const WorkloadQueryReport& s = stalled.queries[i];
    const WorkloadQueryReport& c = clean.queries[i];
    EXPECT_EQ(s.outcome, QueryOutcome::kOk) << s.name;
    EXPECT_EQ(s.drive.total, c.drive.total) << s.name;
    EXPECT_EQ(s.drive.aggregate, c.drive.aggregate) << s.name;
    EXPECT_EQ(s.drive.simulated_msec, c.drive.simulated_msec) << s.name;
    ASSERT_EQ(s.quantum_msec.size(), c.quantum_msec.size()) << s.name;
    for (size_t k = 0; k < s.quantum_msec.size(); ++k) {
      EXPECT_EQ(s.quantum_msec[k], 4.0 * c.quantum_msec[k]) << s.name;
    }
  }
  EXPECT_EQ(stalled.sim_makespan_msec, 4.0 * clean.sim_makespan_msec);
}

// ---------------------------------------------------------------------------
// (c) Fault semantics: retry exhaustion, deadlines, shedding.
// ---------------------------------------------------------------------------

TEST(ServiceFaultsTest, TransientFaultsExhaustRetryBudgetWithCappedBackoff) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeHomogeneousWorkload(2);
  spec.options.faults.transient_fault_rate = 1.0;  // every quantum faults
  spec.options.retry.max_attempts = 3;
  spec.options.retry.backoff_base_msec = 2.0;
  spec.options.retry.backoff_cap_msec = 64.0;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.queries_failed, report.queries.size());
  EXPECT_EQ(report.queries_ok, 0u);
  EXPECT_EQ(report.sim_goodput_qps, 0.0);
  for (const WorkloadQueryReport& q : report.queries) {
    EXPECT_EQ(q.outcome, QueryOutcome::kFailed) << q.name;
    EXPECT_EQ(q.attempts, 3u) << q.name;
    // Backoff after attempt 1 = base, after attempt 2 = 2 * base.
    EXPECT_EQ(q.sim_backoff_msec, 2.0 + 4.0) << q.name;
    EXPECT_EQ(q.error.code(), StatusCode::kInternal) << q.name;
    // Each attempt died on its first quantum (rate 1.0).
    ASSERT_EQ(q.quantum_fate.size(), 3u) << q.name;
    for (const QuantumFate fate : q.quantum_fate) {
      EXPECT_EQ(fate, QuantumFate::kTransientFault) << q.name;
    }
    // Latency decomposition: the backoff waits are part of the span
    // between first dispatch and completion.
    EXPECT_GE(q.sim_finish_msec - q.sim_start_msec, q.sim_backoff_msec)
        << q.name;
  }
  EXPECT_EQ(report.total_retries, 2u * report.queries.size());
}

TEST(ServiceFaultsTest, DeadlineKillsAtVectorBoundaryWithPartialProgress) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeHomogeneousWorkload(1);
  const DriveResult solo = SoloDrive(engine, spec.queries[0]);
  ASSERT_GT(solo.simulated_msec, 0.0);
  spec.queries[0].sim_deadline_msec = 0.3 * solo.simulated_msec;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.queries_deadline_exceeded, 1u);
  const WorkloadQueryReport& q = report.queries[0];
  EXPECT_EQ(q.outcome, QueryOutcome::kDeadlineExceeded);
  // Cooperative kill: partial progress kept, no error behind a deadline.
  EXPECT_GT(q.drive.num_vectors, 0u);
  EXPECT_LT(q.drive.num_vectors, solo.num_vectors);
  EXPECT_TRUE(q.error.ok());
  EXPECT_EQ(q.quantum_fate.back(), QuantumFate::kDeadline);
  // Killed at the first vector boundary past the deadline: the finish
  // lands at or past the deadline but well before the full run.
  EXPECT_GE(q.sim_finish_msec, spec.queries[0].sim_deadline_msec);
  EXPECT_LT(q.sim_finish_msec, solo.simulated_msec);
}

TEST(ServiceFaultsTest, DeadlineSheddingPrefersEarlyRejection) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeHomogeneousWorkload(8);
  const DriveResult solo = SoloDrive(engine, spec.queries[0]);
  // One server, one slot: query i can only start at i * solo_msec, so
  // every query past the second is doomed by its deadline of 2.5x.
  for (WorkloadQuery& q : spec.queries) {
    q.sim_deadline_msec = 2.5 * solo.simulated_msec;
  }
  spec.options.num_threads = 1;
  spec.options.max_concurrent = 1;
  auto late_result = engine.Execute(spec);
  ASSERT_TRUE(late_result.ok());
  const WorkloadReport& late = late_result.ValueOrDie();
  EXPECT_GT(late.queries_deadline_exceeded, 0u);
  EXPECT_EQ(late.queries_shed, 0u);

  spec.options.shed_deadline = true;
  auto shed_result = engine.Execute(spec);
  ASSERT_TRUE(shed_result.ok());
  const WorkloadReport& shed = shed_result.ValueOrDie();
  // Shedding turns late deadline misses into admission-time rejections:
  // same OK count, doomed queries never burn a worker, so the makespan
  // shrinks.
  EXPECT_GT(shed.queries_shed, 0u);
  EXPECT_EQ(shed.queries_deadline_exceeded, 0u);
  EXPECT_EQ(shed.queries_ok, late.queries_ok);
  EXPECT_LT(shed.sim_makespan_msec, late.sim_makespan_msec);
  EXPECT_GT(shed.sim_goodput_qps, late.sim_goodput_qps);
  for (const WorkloadQueryReport& q : shed.queries) {
    if (q.outcome != QueryOutcome::kShed) continue;
    // A shed query never executed: zero attempts, zero progress, and an
    // instant zero-length schedule span at its shed instant.
    EXPECT_EQ(q.attempts, 0u) << q.name;
    EXPECT_EQ(q.drive.num_vectors, 0u) << q.name;
    EXPECT_TRUE(q.quantum_msec.empty()) << q.name;
    EXPECT_EQ(q.sim_finish_msec, q.sim_start_msec) << q.name;
    EXPECT_TRUE(q.error.ok()) << q.name;
  }
}

// ---------------------------------------------------------------------------
// (d) Replay exactness of the full fault stack.
// ---------------------------------------------------------------------------

TEST(ServiceFaultsTest, FaultyScheduleReplaysExactly) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  const DriveResult solo = SoloDrive(engine, spec.queries[0]);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 3;
  spec.options.faults.seed = 7;
  spec.options.faults.transient_fault_rate = 0.05;
  spec.options.faults.stall_rate = 0.10;
  spec.options.faults.stall_factor = 2.0;
  // Query 3 probes out-of-range foreign keys: its latched data error ends
  // it with a kHardFault quantum, which the replay must reproduce too.
  spec.queries[3].name = "bad_join";
  spec.queries[3].query = JoinQuery(engine, "bad_fact");
  spec.options.retry.max_attempts = 3;
  spec.options.retry.backoff_base_msec = 0.5;
  spec.options.retry.backoff_cap_msec = 8.0;
  spec.options.shed_deadline = true;
  spec.queries[2].sim_deadline_msec = 10.0 * solo.simulated_msec;
  spec.queries[5].sim_deadline_msec = 0.5 * solo.simulated_msec;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.queries[3].outcome, QueryOutcome::kFailed);
  ASSERT_FALSE(report.queries[3].quantum_fate.empty());
  EXPECT_EQ(report.queries[3].quantum_fate.back(), QuantumFate::kHardFault);

  ServiceFaultSpec faults;
  faults.retry = spec.options.retry;
  faults.shed_deadline = true;
  for (const WorkloadQuery& q : spec.queries) {
    faults.deadline_msec.push_back(q.sim_deadline_msec);
  }
  const SimSchedule replay = SimulateWorkloadSchedule(
      TracesOf(report), /*arrival_msec=*/{}, spec.options.num_threads,
      spec.options.max_concurrent, SchedulePolicyConfig{},
      /*adaptive=*/nullptr, &faults);
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const WorkloadQueryReport& q = report.queries[i];
    EXPECT_EQ(replay.outcome[i], q.outcome) << q.name;
    EXPECT_EQ(replay.attempts[i], q.attempts) << q.name;
    EXPECT_EQ(replay.backoff_msec[i], q.sim_backoff_msec) << q.name;
    EXPECT_EQ(replay.start_msec[i], q.sim_start_msec) << q.name;
    EXPECT_EQ(replay.finish_msec[i], q.sim_finish_msec) << q.name;
    EXPECT_EQ(replay.queue_wait_msec[i], q.sim_queue_wait_msec) << q.name;
    EXPECT_EQ(replay.latency_msec[i], q.sim_latency_msec) << q.name;
  }
  EXPECT_EQ(replay.makespan_msec, report.sim_makespan_msec);
}

TEST(ServiceFaultsTest, FullServiceStackReplaysExactly) {
  // Every service option at once, on twelve queries: Poisson arrivals,
  // audited shared-L3 contention, adaptive admission, the footprint
  // policy, transient faults with retry, stalls, deadlines with shedding
  // and an out-of-range-FK hard fault. The schedule inputs are hand-set
  // estimates, so the footprint policy reorders admission.
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  for (WorkloadQuery q : MakeMixedWorkload(engine).queries) {
    q.name += "_late";
    spec.queries.push_back(std::move(q));
  }
  const DriveResult solo = SoloDrive(engine, spec.queries[0]);
  spec.queries[3].name = "bad_join";
  spec.queries[3].query = JoinQuery(engine, "bad_fact");
  // The late half carries deadlines; retries back the queue up behind
  // the footprint policy's two-at-a-time admission, so some of it is
  // shed and some killed at a vector boundary.
  for (size_t i = 6; i < spec.queries.size(); ++i) {
    spec.queries[i].sim_deadline_msec = 8.0 * solo.simulated_msec;
  }
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 4;
  spec.options.policy = SchedulePolicy::kFootprintAware;
  spec.options.contention = true;
  spec.options.audit_contention = true;
  spec.options.adaptive_admission = true;
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  // One arrival per two solo runs, on average.
  spec.options.arrival.rate_qps = 0.5 / (solo.simulated_msec / 1e3);
  spec.options.arrival.seed = 13;
  spec.options.faults.seed = 7;
  spec.options.faults.transient_fault_rate = 0.02;
  spec.options.faults.stall_rate = 0.10;
  spec.options.faults.stall_factor = 2.0;
  spec.options.retry.max_attempts = 3;
  spec.options.retry.backoff_base_msec = 0.5;
  spec.options.retry.backoff_cap_msec = 8.0;
  spec.options.shed_deadline = true;

  const Pmu prototype = engine.NewMachine();
  SchedulePolicyConfig config;
  config.policy = spec.options.policy;
  config.l3_capacity_bytes = prototype.config().l3.capacity_bytes;
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    config.tasks.push_back({static_cast<double>(1 + i % 3),
                            (i % 2 == 0 ? 6 : 3) *
                                (config.l3_capacity_bytes / 10)});
  }
  auto result =
      RunWorkload(prototype, spec, config.tasks, CompilerFor(engine));
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.queries[3].outcome, QueryOutcome::kFailed);
  EXPECT_GT(report.queries_shed, 0u);
  EXPECT_GT(report.total_retries, 0u);
  EXPECT_GT(report.admission_decreases, 0u);

  AdaptiveAdmissionSpec adaptive;
  adaptive.l3_capacity_lines = report.shared_l3_capacity_lines;
  ServiceFaultSpec faults;
  faults.retry = spec.options.retry;
  faults.shed_deadline = true;
  for (const WorkloadQuery& q : spec.queries) {
    faults.deadline_msec.push_back(q.sim_deadline_msec);
  }
  const SimSchedule replay = SimulateWorkloadSchedule(
      TracesOf(report),
      GenerateArrivalTimes(spec.options.arrival, spec.queries.size()),
      spec.options.num_threads, spec.options.max_concurrent, config,
      &adaptive, &faults);
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const WorkloadQueryReport& q = report.queries[i];
    EXPECT_EQ(replay.outcome[i], q.outcome) << q.name;
    EXPECT_EQ(replay.attempts[i], q.attempts) << q.name;
    EXPECT_EQ(replay.backoff_msec[i], q.sim_backoff_msec) << q.name;
    EXPECT_EQ(replay.start_msec[i], q.sim_start_msec) << q.name;
    EXPECT_EQ(replay.finish_msec[i], q.sim_finish_msec) << q.name;
    EXPECT_EQ(replay.queue_wait_msec[i], q.sim_queue_wait_msec) << q.name;
    EXPECT_EQ(replay.latency_msec[i], q.sim_latency_msec) << q.name;
  }
  EXPECT_EQ(replay.makespan_msec, report.sim_makespan_msec);
}

// ---------------------------------------------------------------------------
// Unit behaviour: backoff arithmetic, fault draws, the shedder.
// ---------------------------------------------------------------------------

TEST(ServiceFaultsTest, RetryBackoffIsCappedExponential) {
  RetryPolicy policy;
  policy.backoff_base_msec = 2.0;
  policy.backoff_cap_msec = 10.0;
  EXPECT_EQ(RetryBackoffMsec(policy, 0), 0.0);  // no retry, no wait
  EXPECT_EQ(RetryBackoffMsec(policy, 1), 2.0);
  EXPECT_EQ(RetryBackoffMsec(policy, 2), 4.0);
  EXPECT_EQ(RetryBackoffMsec(policy, 3), 8.0);
  EXPECT_EQ(RetryBackoffMsec(policy, 4), 10.0);  // capped
  EXPECT_EQ(RetryBackoffMsec(policy, 60), 10.0);  // stays capped, no overflow
  policy.backoff_base_msec = 0.0;  // zero base disables waiting entirely
  EXPECT_EQ(RetryBackoffMsec(policy, 3), 0.0);
}

TEST(ServiceFaultsTest, FaultDrawsArePureSeededFunctions) {
  FaultPlan plan;
  plan.seed = 11;
  plan.transient_fault_rate = 0.5;
  plan.stall_rate = 0.5;
  // Purity: the same coordinates always draw the same events.
  for (size_t q = 0; q < 4; ++q) {
    for (size_t a = 0; a < 3; ++a) {
      for (size_t k = 0; k < 8; ++k) {
        const FaultDraw first = DrawFault(plan, q, a, k);
        const FaultDraw second = DrawFault(plan, q, a, k);
        EXPECT_EQ(first.transient, second.transient);
        EXPECT_EQ(first.stall, second.stall);
      }
    }
  }
  // Rates 0 and 1 are degenerate coin flips.
  plan.transient_fault_rate = 0.0;
  plan.stall_rate = 1.0;
  for (size_t k = 0; k < 16; ++k) {
    const FaultDraw draw = DrawFault(plan, 0, 0, k);
    EXPECT_FALSE(draw.transient);
    EXPECT_TRUE(draw.stall);
  }
  // The seed matters: two seeds must disagree somewhere.
  plan.transient_fault_rate = 0.5;
  FaultPlan other = plan;
  other.seed = 12;
  bool differs = false;
  for (size_t k = 0; k < 64 && !differs; ++k) {
    differs = DrawFault(plan, 0, 0, k).transient !=
              DrawFault(other, 0, 0, k).transient;
  }
  EXPECT_TRUE(differs);
}

TEST(ServiceFaultsTest, DeadlineShedderCalibratesOnlineAndNeverShedsBlind) {
  DeadlineShedder shedder;
  EXPECT_FALSE(shedder.calibrated());
  EXPECT_EQ(shedder.EstimateServiceMsec(10.0), 0.0);
  // Uncalibrated: never sheds, however hopeless the deadline looks.
  EXPECT_FALSE(shedder.ShouldShed(1000.0, 0.0, 1.0, 10.0, 4, 1));
  shedder.OnQueryDone(/*service_msec=*/100.0, /*work=*/10.0);
  EXPECT_TRUE(shedder.calibrated());
  // Work-scaled estimate: 10 msec per unit of work.
  EXPECT_EQ(shedder.EstimateServiceMsec(10.0), 100.0);
  EXPECT_EQ(shedder.EstimateServiceMsec(20.0), 200.0);
  // Zero work falls back to the mean observed service time.
  EXPECT_EQ(shedder.EstimateServiceMsec(0.0), 100.0);
  // Fits: predicted finish 0 + 100 <= deadline 150.
  EXPECT_FALSE(shedder.ShouldShed(0.0, 0.0, 150.0, 10.0, 0, 1));
  // Doomed: the queue wait already spent the budget (now = 80).
  EXPECT_TRUE(shedder.ShouldShed(80.0, 0.0, 150.0, 10.0, 0, 1));
  // Crowding scales the prediction: 4 in flight on 2 workers -> 2.5x.
  EXPECT_TRUE(shedder.ShouldShed(0.0, 0.0, 150.0, 10.0, 4, 2));
  EXPECT_FALSE(shedder.ShouldShed(0.0, 0.0, 300.0, 10.0, 4, 2));
  // No deadline means never shed.
  EXPECT_FALSE(shedder.ShouldShed(1e9, 0.0, 0.0, 10.0, 4, 1));
}

// ---------------------------------------------------------------------------
// (e) Status propagation: FK-out-of-range latching in every entry point,
//     driver validation.
// ---------------------------------------------------------------------------

TEST(ServiceFaultsTest, FkOutOfRangeFailsSoloEntryPoints) {
  Engine engine = MakeFaultEngine();
  const QuerySpec bad = JoinQuery(engine, "bad_fact");
  ExecOptions options;
  options.vector_size = 2'048;
  auto baseline = engine.Execute(bad, options);
  EXPECT_EQ(baseline.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(baseline.status().message().find("dimension"), std::string::npos);
  options.mode = ExecMode::kProgressive;
  options.progressive.vector_size = 2'048;
  auto progressive = engine.Execute(bad, options);
  EXPECT_EQ(progressive.status().code(), StatusCode::kOutOfRange);
}

TEST(ServiceFaultsTest, FkOutOfRangeFailsParallelEntryPoints) {
  Engine engine = MakeFaultEngine();
  const QuerySpec bad = JoinQuery(engine, "bad_fact");
  for (size_t threads : TestThreadCounts()) {
    ExecOptions options;
    options.driver = ExecDriver::kSharded;
    options.num_threads = threads;
    options.vector_size = 2'048;
    auto report = engine.Execute(bad, options);
    EXPECT_EQ(report.status().code(), StatusCode::kOutOfRange)
        << threads << " threads";
  }
}

TEST(ServiceFaultsTest, FkOutOfRangeFailsWorkloadQueryKeepsOthers) {
  Engine engine = MakeFaultEngine();
  WorkloadSpec spec;
  WorkloadQuery good;
  good.name = "good_scan";
  good.query = ScanQuery("fact_a", 90, 50, 2);
  good.config.vector_size = 2'048;
  WorkloadQuery bad;
  bad.name = "bad_join";
  bad.query = JoinQuery(engine, "bad_fact");
  bad.config.vector_size = 2'048;
  spec.queries = {good, bad, good};
  spec.queries[2].name = "good_scan_2";
  const DriveResult solo = SoloDrive(engine, good);
  // A latched data error fails the query identically with and without a
  // retry budget: the budget must NOT retry a hard data error.
  for (const size_t max_attempts : {size_t{1}, size_t{3}}) {
    spec.options.num_threads = 2;
    spec.options.max_concurrent = 2;
    spec.options.retry.max_attempts = max_attempts;
    auto result = engine.Execute(spec);
    ASSERT_TRUE(result.ok());
    const WorkloadReport& report = result.ValueOrDie();
    EXPECT_EQ(report.queries_failed, 1u);
    EXPECT_EQ(report.queries_ok, 2u);
    EXPECT_EQ(report.total_retries, 0u);
    const WorkloadQueryReport& failed = report.queries[1];
    EXPECT_EQ(failed.outcome, QueryOutcome::kFailed);
    EXPECT_EQ(failed.attempts, 1u);
    EXPECT_EQ(failed.error.code(), StatusCode::kOutOfRange);
    EXPECT_NE(failed.error.message().find("dimension"), std::string::npos);
    // The healthy queries are untouched by their neighbour's failure.
    EXPECT_EQ(report.queries[0].drive.total, solo.total);
    EXPECT_EQ(report.queries[2].drive.total, solo.total);
  }
}

TEST(ServiceFaultsTest, ParallelDriverValidatesConfiguration) {
  Engine engine = MakeFaultEngine();
  const Table* table = engine.GetTable("fact_a").ValueOrDie();
  const QuerySpec q = ScanQuery("fact_a", 90, 50, 2);
  auto factory = [&](Pmu* pmu) {
    return PipelineExecutor::Compile(*table, q.ops, q.payload_columns, pmu,
                                     InstrumentationMode::kPmu);
  };
  {
    ParallelDriver driver(engine.NewMachine(), nullptr, ParallelConfig{});
    EXPECT_EQ(driver.Run().status().code(), StatusCode::kInvalidArgument);
  }
  {
    ParallelConfig config;
    config.num_threads = 0;
    ParallelDriver driver(engine.NewMachine(), factory, config);
    EXPECT_EQ(driver.Run().status().code(), StatusCode::kInvalidArgument);
  }
  {
    ParallelConfig config;
    config.morsel_size = 0;
    ParallelDriver driver(engine.NewMachine(), factory, config);
    EXPECT_EQ(driver.Run().status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServiceFaultsTest, FaultOptionsValidate) {
  Engine engine = MakeFaultEngine();
  const WorkloadSpec base = MakeMixedWorkload(engine);
  auto expect_invalid = [&](WorkloadSpec spec) {
    EXPECT_EQ(engine.Execute(spec).status().code(),
              StatusCode::kInvalidArgument);
  };
  WorkloadSpec spec = base;
  spec.options.faults.transient_fault_rate = -0.1;
  expect_invalid(spec);
  spec = base;
  spec.options.faults.transient_fault_rate = 1.5;
  expect_invalid(spec);
  spec = base;
  spec.options.faults.stall_rate = 0.5;
  spec.options.faults.stall_factor = 0.5;  // a "stall" that speeds up
  expect_invalid(spec);
  spec = base;
  spec.options.retry.max_attempts = 0;
  expect_invalid(spec);
  spec = base;
  spec.options.retry.max_attempts = 3;
  spec.options.retry.backoff_base_msec = -1.0;
  expect_invalid(spec);
  spec = base;
  spec.options.retry.max_attempts = 3;
  spec.options.retry.backoff_base_msec = 8.0;
  spec.options.retry.backoff_cap_msec = 2.0;  // cap below base
  expect_invalid(spec);
  spec = base;
  spec.queries[0].sim_deadline_msec = -5.0;
  expect_invalid(spec);
}

}  // namespace
}  // namespace nipo
