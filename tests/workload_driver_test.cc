#include "exec/workload_driver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/prng.h"
#include "core/engine.h"
#include "workload_replay.h"

// Coverage for multi-query workload execution (DESIGN.md "Workload
// execution"):
//  - every query's results AND counters are bit-identical to running it
//    alone through Engine::Execute (SoloDrive), for any
//    max_concurrent and simulated core count;
//  - the whole report (per-query counters, simulated schedule, makespan)
//    is stable across max_concurrent in {1, 2, 8} and across repeated
//    runs;
//  - admission control bounds in-flight queries and serializes the
//    simulated schedule at max_concurrent = 1;
//  - SimulateWorkloadSchedule replays the admission policy
//    deterministically, and under every SchedulePolicy, with and
//    without a shared L3, a closed-queue report's recorded quanta (four
//    parallel per-quantum arrays) replay to its exact schedule;
//  - a retry budget on a fault-free run changes nothing.
// ci/check.sh runs this suite with NIPO_TEST_THREADS=1 and =8 and under
// ThreadSanitizer; the env var replaces the default core-count sweep.

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
                                uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> a(n), b(n), c(n), fk(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    c[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(kDimRows));
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

/// Two fact tables (40k / 60k rows) + one 10k-row dimension.
Engine MakeWorkloadEngine() {
  Engine engine(HwConfig::ScaledXeon(16));
  EXPECT_TRUE(engine.RegisterTable(MakeFact("fact_a", 40'000, 1)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeFact("fact_b", 60'000, 2)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeDim("dim", kDimRows, 3)).ok());
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

/// Eight mixed queries: scans + FK-probe joins + SUM aggregates over two
/// shared tables, baseline and progressive, with one scan's operators
/// listed in another order — the heterogeneity the bit-equality claims
/// must hold under.
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
  QuerySpec reordered = ScanQuery("fact_a", 90, 50, 2);
  reordered.ops = {reordered.ops[2], reordered.ops[0], reordered.ops[1]};
  // Worst-first scans (the ~2% predicate evaluated last) in both modes.
  add("scan_a_base", ScanQuery("fact_a", 90, 50, 2), false, 2'048);
  add("scan_a_prog", ScanQuery("fact_a", 90, 50, 2), true, 2'048);
  add("scan_b_base", ScanQuery("fact_b", 90, 50, 2), false, 4'096);
  add("scan_b_prog", ScanQuery("fact_b", 90, 50, 2), true, 4'096);
  add("join_a_base", JoinQuery(engine, "fact_a"), false, 2'048);
  add("join_b_prog", JoinQuery(engine, "fact_b"), true, 2'048);
  add("scan_b_selective", ScanQuery("fact_b", 10, 90, 90), false, 1'024);
  add("scan_a_reordered", std::move(reordered), false, 2'048);
  return spec;
}

TEST(WorkloadDriverTest, DeterministicModeIsBitIdenticalToSoloRuns) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.max_concurrent = 8;
  for (size_t threads : TestThreadCounts()) {
    spec.options.num_threads = threads;
    auto result = engine.Execute(spec);
    ASSERT_TRUE(result.ok());
    const WorkloadReport& report = result.ValueOrDie();
    ASSERT_EQ(report.queries.size(), spec.queries.size());
    for (size_t i = 0; i < spec.queries.size(); ++i) {
      std::vector<size_t> solo_order;
      const DriveResult solo = SoloDrive(engine, spec.queries[i], &solo_order);
      const WorkloadQueryReport& q = report.queries[i];
      EXPECT_EQ(q.name, spec.queries[i].name);
      EXPECT_EQ(q.drive.total, solo.total)  // every counter, exactly
          << q.name << ", " << threads << " threads";
      EXPECT_EQ(q.drive.qualifying_tuples, solo.qualifying_tuples) << q.name;
      EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;  // bitwise
      EXPECT_EQ(q.drive.simulated_msec, solo.simulated_msec) << q.name;
      EXPECT_EQ(q.drive.num_vectors, solo.num_vectors) << q.name;
      EXPECT_EQ(q.final_order, solo_order) << q.name;
    }
  }
}

TEST(WorkloadDriverTest, ReportIsStableAcrossMaxConcurrentAndRuns) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  // Reference: fully serial (one slot, one worker).
  spec.options.num_threads = 1;
  spec.options.max_concurrent = 1;
  auto serial = engine.Execute(spec);
  ASSERT_TRUE(serial.ok());
  const WorkloadReport& ref = serial.ValueOrDie();
  EXPECT_EQ(ref.peak_in_flight, 1u);
  for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t threads : TestThreadCounts()) {
      for (int run = 0; run < 2; ++run) {
        spec.options.num_threads = threads;
        spec.options.max_concurrent = max_concurrent;
        auto result = engine.Execute(spec);
        ASSERT_TRUE(result.ok());
        const WorkloadReport& report = result.ValueOrDie();
        EXPECT_LE(report.peak_in_flight, max_concurrent);
        double serial_sum = 0;
        for (size_t i = 0; i < report.queries.size(); ++i) {
          const WorkloadQueryReport& q = report.queries[i];
          EXPECT_EQ(q.drive.total, ref.queries[i].drive.total)
              << q.name << ", mc=" << max_concurrent << ", t=" << threads;
          EXPECT_EQ(q.drive.aggregate, ref.queries[i].drive.aggregate);
          EXPECT_EQ(q.changes.size(), ref.queries[i].changes.size());
          EXPECT_GT(q.quanta, 0u);
          EXPECT_LE(q.sim_start_msec, q.sim_finish_msec);
          EXPECT_LE(q.sim_finish_msec, report.sim_makespan_msec);
          serial_sum += q.drive.simulated_msec;
        }
        // The machine-time sum is schedule-independent, so the serial
        // baseline and the makespan bounds follow from it exactly.
        EXPECT_EQ(report.sim_serial_msec, serial_sum);
        EXPECT_GT(report.sim_makespan_msec, 0.0);
        EXPECT_LE(report.sim_makespan_msec, serial_sum * 1.000001);
        EXPECT_EQ(report.sim_queries_per_sec,
                  static_cast<double>(report.queries.size()) /
                      (report.sim_makespan_msec / 1e3));
      }
    }
  }
}

TEST(WorkloadDriverTest, SimulatedScheduleIsConcurrentOnlyWhenAdmitted) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 4;
  // max_concurrent = 1: admission serializes the simulated schedule FIFO
  // regardless of the pool width.
  spec.options.max_concurrent = 1;
  auto serialized = engine.Execute(spec);
  ASSERT_TRUE(serialized.ok());
  const WorkloadReport& one = serialized.ValueOrDie();
  EXPECT_EQ(one.peak_in_flight, 1u);
  for (size_t i = 1; i < one.queries.size(); ++i) {
    EXPECT_GE(one.queries[i].sim_start_msec,
              one.queries[i - 1].sim_finish_msec);
  }
  EXPECT_EQ(one.sim_makespan_msec, one.queries.back().sim_finish_msec);
  // Widening admission (same pool) can only shrink the makespan, and with
  // every slot open all queries are dispatched at t = 0-plus-queueing on
  // the 4 simulated cores.
  spec.options.max_concurrent = 8;
  auto open = engine.Execute(spec);
  ASSERT_TRUE(open.ok());
  const WorkloadReport& eight = open.ValueOrDie();
  EXPECT_EQ(eight.peak_in_flight, 8u);
  EXPECT_LE(eight.sim_makespan_msec, one.sim_makespan_msec);
  EXPECT_GT(eight.sim_queries_per_sec, one.sim_queries_per_sec);
}

TEST(WorkloadDriverTest, SimulateWorkloadScheduleReplaysAdmissionPolicy) {
  // Two single-quantum queries on two cores: concurrent with two
  // admission slots, serialized with one.
  const std::vector<std::vector<double>> quanta = {{10.0}, {10.0}};
  SimSchedule two = ReplayDurations(quanta, 2, 2);
  EXPECT_EQ(two.start_msec, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(two.finish_msec, (std::vector<double>{10.0, 10.0}));
  EXPECT_EQ(two.makespan_msec, 10.0);
  SimSchedule one = ReplayDurations(quanta, 2, 1);
  EXPECT_EQ(one.start_msec, (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(one.finish_msec, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(one.makespan_msec, 20.0);
  // Round-robin on one core: quanta of the two admitted queries
  // interleave a-b-a-b.
  SimSchedule rr = ReplayDurations({{1.0, 1.0}, {1.0, 1.0}}, 1, 2);
  EXPECT_EQ(rr.finish_msec, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(rr.makespan_msec, 4.0);
  // A freed admission slot admits the next query FIFO.
  SimSchedule fifo = ReplayDurations({{5.0}, {1.0}, {1.0}}, 2, 2);
  EXPECT_EQ(fifo.start_msec, (std::vector<double>{0.0, 0.0, 1.0}));
  EXPECT_EQ(fifo.finish_msec, (std::vector<double>{5.0, 1.0, 2.0}));
  EXPECT_EQ(fifo.makespan_msec, 5.0);
}

/// Runs the mixed workload straight through RunWorkload, with schedule
/// estimates that make kFootprintAware reorder admission: distinct L3
/// footprints (some pairs fit the L3 together, some do not) and work
/// estimates. Returns the report and, through `config`, the matching
/// replay configuration.
Result<WorkloadReport> RunWithPolicyInputs(const Engine& engine,
                                           const WorkloadSpec& spec,
                                           SchedulePolicyConfig* config) {
  const Pmu prototype = engine.NewMachine();
  const uint64_t l3 = prototype.config().l3.capacity_bytes;
  config->policy = spec.options.policy;
  config->l3_capacity_bytes = l3;
  config->tasks.clear();
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    config->tasks.push_back({static_cast<double>((i * 7) % 8),
                             (i % 2 == 0 ? 6 : 3) * (l3 / 10)});
  }
  return RunWorkload(prototype, spec, config->tasks, CompilerFor(engine));
}

constexpr SchedulePolicy kAllPolicies[] = {SchedulePolicy::kFifo,
                                           SchedulePolicy::kFootprintAware};

TEST(WorkloadDriverTest, ClosedQueueRecordsReplayableQuanta) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.max_concurrent = 3;
  spec.options.burst_vectors = 2;
  for (const bool contention : {false, true}) {
    for (const SchedulePolicy policy : kAllPolicies) {
      for (size_t threads : TestThreadCounts()) {
        spec.options.contention = contention;
        spec.options.policy = policy;
        spec.options.num_threads = threads;
        SchedulePolicyConfig config;
        auto result = RunWithPolicyInputs(engine, spec, &config);
        ASSERT_TRUE(result.ok());
        const WorkloadReport& report = result.ValueOrDie();
        const std::string where =
            std::string(SchedulePolicyToString(policy)) + ", " +
            std::to_string(threads) + " cores" +
            (contention ? ", shared L3" : "");
        // All four per-quantum arrays are parallel, one entry per quantum.
        for (const WorkloadQueryReport& q : report.queries) {
          EXPECT_EQ(q.quantum_msec.size(), q.quanta) << q.name << ", "
                                                     << where;
          EXPECT_EQ(q.quantum_evictions.size(), q.quanta) << q.name;
          EXPECT_EQ(q.quantum_occupancy.size(), q.quanta) << q.name;
          EXPECT_EQ(q.quantum_fate.size(), q.quanta) << q.name;
        }
        // The recorded quanta replay to the live schedule, exactly — also
        // under contention, where admission must not depend on anything
        // the trace does not record.
        const SimSchedule replay = SimulateWorkloadSchedule(
            TracesOf(report), /*arrival_msec=*/{}, threads,
            spec.options.max_concurrent, config);
        ASSERT_EQ(replay.start_msec.size(), report.queries.size());
        for (size_t i = 0; i < report.queries.size(); ++i) {
          const WorkloadQueryReport& q = report.queries[i];
          EXPECT_EQ(replay.start_msec[i], q.sim_start_msec)
              << q.name << ", " << where;
          EXPECT_EQ(replay.finish_msec[i], q.sim_finish_msec)
              << q.name << ", " << where;
        }
        EXPECT_EQ(replay.makespan_msec, report.sim_makespan_msec) << where;
      }
    }
  }
}

/// Every simulated field of two reports (host wall time excluded).
void ExpectSameReport(const WorkloadReport& a, const WorkloadReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const WorkloadQueryReport& x = a.queries[i];
    const WorkloadQueryReport& y = b.queries[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.drive.total, y.drive.total) << x.name;
    EXPECT_EQ(x.drive.input_tuples, y.drive.input_tuples) << x.name;
    EXPECT_EQ(x.drive.qualifying_tuples, y.drive.qualifying_tuples);
    EXPECT_EQ(x.drive.aggregate, y.drive.aggregate) << x.name;
    EXPECT_EQ(x.drive.simulated_msec, y.drive.simulated_msec) << x.name;
    EXPECT_EQ(x.drive.num_vectors, y.drive.num_vectors) << x.name;
    EXPECT_EQ(x.changes.size(), y.changes.size()) << x.name;
    EXPECT_EQ(x.num_optimizations, y.num_optimizations) << x.name;
    EXPECT_EQ(x.final_order, y.final_order) << x.name;
    EXPECT_EQ(x.sim_start_msec, y.sim_start_msec) << x.name;
    EXPECT_EQ(x.sim_finish_msec, y.sim_finish_msec) << x.name;
    EXPECT_EQ(x.sim_latency_msec, y.sim_latency_msec) << x.name;
    EXPECT_EQ(x.quanta, y.quanta) << x.name;
    EXPECT_EQ(x.quantum_msec, y.quantum_msec) << x.name;
    EXPECT_EQ(x.quantum_evictions, y.quantum_evictions) << x.name;
    EXPECT_EQ(x.quantum_occupancy, y.quantum_occupancy) << x.name;
    EXPECT_EQ(x.quantum_fate, y.quantum_fate) << x.name;
    EXPECT_EQ(x.outcome, y.outcome) << x.name;
    EXPECT_EQ(x.attempts, y.attempts) << x.name;
    EXPECT_EQ(x.sim_backoff_msec, y.sim_backoff_msec) << x.name;
    EXPECT_EQ(x.error.ok(), y.error.ok()) << x.name;
  }
  EXPECT_EQ(a.sim_makespan_msec, b.sim_makespan_msec);
  EXPECT_EQ(a.sim_queries_per_sec, b.sim_queries_per_sec);
  EXPECT_EQ(a.sim_serial_msec, b.sim_serial_msec);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.queue_wait, b.queue_wait);
  EXPECT_EQ(a.queries_ok, b.queries_ok);
  EXPECT_EQ(a.sim_goodput_qps, b.sim_goodput_qps);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_backoff_msec, b.total_backoff_msec);
}

TEST(WorkloadDriverTest, UnusedRetryBudgetChangesNothing) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.max_concurrent = 3;
  for (const SchedulePolicy policy : kAllPolicies) {
    for (size_t threads : TestThreadCounts()) {
      spec.options.policy = policy;
      spec.options.num_threads = threads;
      spec.options.retry = RetryPolicy{};
      auto plain = engine.Execute(spec);
      spec.options.retry.max_attempts = 2;  // no fault ever uses it
      auto budget = engine.Execute(spec);
      ASSERT_TRUE(plain.ok() && budget.ok());
      EXPECT_EQ(budget.ValueOrDie().queries_ok, spec.queries.size());
      ExpectSameReport(plain.ValueOrDie(), budget.ValueOrDie());
    }
  }
}

TEST(WorkloadDriverTest, ProgressiveQueriesReoptimizeIndependently) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 8;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  // The worst-first progressive scans must each discover the selective
  // predicate (index 2) from their own private counter windows.
  for (const char* name : {"scan_a_prog", "scan_b_prog"}) {
    const auto it = std::find_if(
        report.queries.begin(), report.queries.end(),
        [&](const WorkloadQueryReport& q) { return q.name == name; });
    ASSERT_NE(it, report.queries.end());
    EXPECT_TRUE(it->progressive);
    ASSERT_FALSE(it->changes.empty()) << name;
    ASSERT_EQ(it->final_order.size(), 3u);
    EXPECT_EQ(it->final_order.front(), 2u) << name;
  }
  // Baseline queries carry no PEO trace.
  for (const WorkloadQueryReport& q : report.queries) {
    if (!q.progressive) {
      EXPECT_TRUE(q.changes.empty()) << q.name;
    }
  }
}

TEST(WorkloadDriverTest, ErrorsPropagate) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);  // empty workload
  spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 0;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 0;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.options.max_concurrent = 2;
  spec.options.burst_vectors = 0;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.options.burst_vectors = 1;
  // A bad query anywhere in the queue fails the whole workload up front.
  spec.queries[3].query.table = "missing";
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kNotFound);
  spec = MakeMixedWorkload(engine);
  spec.queries[5].query.ops[0].predicate.column = "missing";
  EXPECT_FALSE(engine.Execute(spec).ok());
  // RunWorkload needs one schedule estimate per query.
  spec = MakeMixedWorkload(engine);
  EXPECT_EQ(RunWorkload(engine.NewMachine(), spec, {}, CompilerFor(engine))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadDriverTest, BurstVectorsDoNotChangeCountersOrSchedulePolicy) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 4;
  auto fine = engine.Execute(spec);
  ASSERT_TRUE(fine.ok());
  spec.options.burst_vectors = 8;  // coarser quanta, fewer yields
  auto coarse = engine.Execute(spec);
  ASSERT_TRUE(coarse.ok());
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    EXPECT_EQ(fine.ValueOrDie().queries[i].drive.total,
              coarse.ValueOrDie().queries[i].drive.total);
    EXPECT_GE(fine.ValueOrDie().queries[i].quanta,
              coarse.ValueOrDie().queries[i].quanta);
  }
}

}  // namespace
}  // namespace nipo
