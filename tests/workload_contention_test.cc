#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/prng.h"
#include "core/engine.h"
#include "hw/shared_cache.h"
#include "workload_replay.h"

// Differential coverage for shared-L3 contention modelling (DESIGN.md
// Section 6 "Shared-cache contention"):
//  - contention=off keeps every PR-4 bit-equality gate: each query's
//    results AND counters equal its solo single-threaded run, and the new
//    eviction counters stay zero;
//  - a single query under contention equals the same query without it
//    (one owner cannot interfere with itself);
//  - two L3-reuse (FK-probe) queries co-scheduled under one shared L3
//    each report strictly more L3 misses than solo, with cross-owner
//    evictions charged on both sides;
//  - the domain's occupancy/eviction accounting invariants hold after
//    every quantum (WorkloadOptions::audit_contention);
//  - contended runs are bit-deterministic across reruns and
//    max_concurrent in {1, 2, 8}, and the live contended schedule is
//    exactly reproduced by SimulateWorkloadSchedule from the recorded
//    per-quantum durations.
//
// The thrashing pair deliberately uses FK-probe queries with L3-resident
// dimension tables: the streaming prefetcher serves sequential scans from
// the private L2 after one shared-L3 fill per line, so pure streams do
// not suffer extra L3 misses under contention — only re-referenced
// working sets (the probed dimensions) do.

namespace nipo {
namespace {

std::unique_ptr<Table> MakeFact(const std::string& name, size_t n,
                                uint64_t seed, size_t fk_domain) {
  Prng prng(seed);
  std::vector<int32_t> a(n), fk(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(fk_domain));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
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

/// Engine whose per-query working sets fit the scaled 960 KB shared L3
/// alone (~800 KB: three streamed fact columns + one 160 KB probed
/// dimension) but overflow it in pairs — the contention regime the
/// differential claims need.
Engine MakeContentionEngine() {
  Engine engine(HwConfig::ScaledXeon(16));
  constexpr size_t kFactRows = 40'000;
  constexpr size_t kReuseDimRows = 40'000;  // 160 KB of int32 attr
  EXPECT_TRUE(
      engine.RegisterTable(MakeFact("fact_a", kFactRows, 1, kReuseDimRows))
          .ok());
  EXPECT_TRUE(
      engine.RegisterTable(MakeFact("fact_b", kFactRows, 2, kReuseDimRows))
          .ok());
  // Distinct dimensions per query: no constructive sharing, so contention
  // can only hurt.
  EXPECT_TRUE(engine.RegisterTable(MakeDim("dim_a", kReuseDimRows, 3)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeDim("dim_b", kReuseDimRows, 4)).ok());
  // Shared dimension for the mixed workload below (same fk domain).
  EXPECT_TRUE(engine.RegisterTable(MakeDim("dim", kReuseDimRows, 5)).ok());
  return engine;
}

QuerySpec JoinQuery(const Engine& engine, const std::string& fact,
                    const std::string& dim) {
  QuerySpec q;
  q.table = fact;
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 80.0}),
           OperatorSpec::FkProbe({"fk", engine.GetTable(dim).ValueOrDie(),
                                  "attr", CompareOp::kLt, 40.0})};
  q.payload_columns = {"payload"};
  return q;
}

WorkloadQuery MakeEntry(std::string name, QuerySpec q, bool progressive,
                        size_t vector_size = 2'048) {
  WorkloadQuery query;
  query.name = std::move(name);
  query.query = std::move(q);
  query.progressive = progressive;
  query.config.vector_size = vector_size;
  query.config.reopt_interval = 2;
  return query;
}

/// Mixed six-query workload over the contention engine: joins in both
/// modes plus predicate-only scans, enough heterogeneity for the
/// determinism and audit sweeps.
WorkloadSpec MakeMixedWorkload(const Engine& engine) {
  WorkloadSpec spec;
  spec.queries.push_back(
      MakeEntry("join_a", JoinQuery(engine, "fact_a", "dim_a"), false));
  spec.queries.push_back(
      MakeEntry("join_b", JoinQuery(engine, "fact_b", "dim_b"), false));
  spec.queries.push_back(
      MakeEntry("join_a_prog", JoinQuery(engine, "fact_a", "dim"), true));
  QuerySpec scan;
  scan.table = "fact_b";
  scan.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 50.0})};
  scan.payload_columns = {"payload"};
  spec.queries.push_back(MakeEntry("scan_b", scan, false, 4'096));
  spec.queries.push_back(MakeEntry("scan_b_prog", scan, true, 1'024));
  spec.queries.push_back(
      MakeEntry("join_b_prog", JoinQuery(engine, "fact_b", "dim"), true));
  return spec;
}

TEST(WorkloadContentionTest, ContentionOffKeepsSoloBitEquality) {
  Engine engine = MakeContentionEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 4;
  spec.options.max_concurrent = 4;
  spec.options.contention = false;  // the PR-4 contract, explicitly
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_FALSE(report.contention);
  EXPECT_EQ(report.shared_l3_capacity_lines, 0u);
  EXPECT_EQ(report.shared_l3_lines_displaced, 0u);
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const DriveResult solo = SoloDrive(engine, spec.queries[i]);
    const WorkloadQueryReport& q = report.queries[i];
    EXPECT_EQ(q.drive.total, solo.total) << q.name;  // every counter
    EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;
    EXPECT_EQ(q.drive.simulated_msec, solo.simulated_msec) << q.name;
    EXPECT_EQ(q.drive.total.l3_evictions_caused, 0u) << q.name;
    EXPECT_EQ(q.drive.total.l3_evictions_suffered, 0u) << q.name;
    EXPECT_EQ(q.shared_l3_peak_occupancy_lines, 0u) << q.name;
    EXPECT_EQ(q.shared_l3_final_occupancy_lines, 0u) << q.name;
  }
}

TEST(WorkloadContentionTest, SingleQueryUnderContentionMatchesSolo) {
  Engine engine = MakeContentionEngine();
  // One owner cannot interfere with itself: the shared domain replays the
  // private L3 bit-exactly (baseline and progressive alike).
  for (const bool progressive : {false, true}) {
    WorkloadSpec spec;
    spec.queries.push_back(MakeEntry(
        "only", JoinQuery(engine, "fact_a", "dim_a"), progressive));
    spec.options.num_threads = 2;
    spec.options.max_concurrent = 8;
    spec.options.contention = true;
    spec.options.audit_contention = true;
    auto result = engine.Execute(spec);
    ASSERT_TRUE(result.ok());
    const WorkloadReport& report = result.ValueOrDie();
    const DriveResult solo = SoloDrive(engine, spec.queries[0]);
    const WorkloadQueryReport& q = report.queries[0];
    EXPECT_EQ(q.drive.total, solo.total)
        << (progressive ? "progressive" : "baseline") << "\ncontended: "
        << q.drive.total.ToString() << "\nsolo:      " << solo.total.ToString();
    EXPECT_EQ(q.drive.aggregate, solo.aggregate);
    EXPECT_EQ(q.drive.simulated_msec, solo.simulated_msec);
    EXPECT_EQ(q.drive.total.l3_evictions_caused, 0u);
    EXPECT_EQ(q.drive.total.l3_evictions_suffered, 0u);
    // The query really ran through the shared domain.
    EXPECT_GT(q.shared_l3_peak_occupancy_lines, 0u);
    EXPECT_TRUE(report.contention);
    EXPECT_GT(report.shared_l3_capacity_lines, 0u);
  }
}

TEST(WorkloadContentionTest, CoScheduledReuseQueriesEachSufferMoreL3Misses) {
  Engine engine = MakeContentionEngine();
  WorkloadSpec spec;
  spec.queries.push_back(
      MakeEntry("join_a", JoinQuery(engine, "fact_a", "dim_a"), false));
  spec.queries.push_back(
      MakeEntry("join_b", JoinQuery(engine, "fact_b", "dim_b"), false));
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  spec.options.contention = true;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_GT(report.shared_l3_lines_displaced, 0u);
  for (size_t i = 0; i < 2; ++i) {
    const DriveResult solo = SoloDrive(engine, spec.queries[i]);
    const WorkloadQueryReport& q = report.queries[i];
    // Results are machine-state independent; only the counters move.
    EXPECT_EQ(q.drive.qualifying_tuples, solo.qualifying_tuples) << q.name;
    EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;
    // The paper's contention effect: each query's monitored L3-miss
    // counter rises because the co-runner displaces its reused dimension
    // lines — interference, not extra work.
    EXPECT_GT(q.drive.total.l3_misses, solo.total.l3_misses) << q.name;
    EXPECT_EQ(q.drive.total.l3_accesses, solo.total.l3_accesses) << q.name;
    EXPECT_GT(q.drive.total.l3_evictions_suffered, 0u) << q.name;
    EXPECT_GT(q.drive.total.l3_evictions_caused, 0u) << q.name;
    // Interference costs simulated time too (misses price as memory).
    EXPECT_GT(q.drive.simulated_msec, solo.simulated_msec) << q.name;
  }
}

TEST(WorkloadContentionTest, OccupancyAndEvictionAccountingAuditsClean) {
  Engine engine = MakeContentionEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 4;
  spec.options.contention = true;
  // Per-quantum NIPO_CHECK inside the driver: per-owner occupancy sums to
  // the occupied line count, displaced lines equal charged evictions.
  spec.options.audit_contention = true;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  const uint64_t capacity =
      engine.hw_config().l3.capacity_bytes / kCacheLineBytes;
  EXPECT_EQ(report.shared_l3_capacity_lines, capacity);
  uint64_t suffered = 0, caused = 0;
  for (const WorkloadQueryReport& q : report.queries) {
    EXPECT_LE(q.shared_l3_final_occupancy_lines,
              q.shared_l3_peak_occupancy_lines)
        << q.name;
    EXPECT_LE(q.shared_l3_peak_occupancy_lines, capacity) << q.name;
    suffered += q.drive.total.l3_evictions_suffered;
    caused += q.drive.total.l3_evictions_caused;
  }
  // Every windowed suffered eviction was caused by some other query. The
  // converse is an inequality, not an equality: a query's counters freeze
  // when it completes, so its dead lines displaced afterwards appear in
  // the (live) aggressor's caused counter but in no victim window. The
  // exact per-event symmetry is what audit_contention checks inside the
  // driver, at domain level, after every quantum.
  EXPECT_GT(suffered, 0u);
  EXPECT_LE(suffered, caused);
  EXPECT_LE(caused, report.shared_l3_lines_displaced);
}

TEST(WorkloadContentionTest, ContendedRunsAreDeterministic) {
  Engine engine = MakeContentionEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.contention = true;
  for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{8}}) {
    spec.options.max_concurrent = max_concurrent;
    spec.options.num_threads = max_concurrent;
    auto first = engine.Execute(spec);
    ASSERT_TRUE(first.ok());
    auto second = engine.Execute(spec);
    ASSERT_TRUE(second.ok());
    const WorkloadReport& a = first.ValueOrDie();
    const WorkloadReport& b = second.ValueOrDie();
    EXPECT_EQ(a.sim_makespan_msec, b.sim_makespan_msec);  // bitwise
    EXPECT_EQ(a.shared_l3_lines_displaced, b.shared_l3_lines_displaced);
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].drive.total, b.queries[i].drive.total)
          << a.queries[i].name << ", mc=" << max_concurrent;
      EXPECT_EQ(a.queries[i].drive.aggregate, b.queries[i].drive.aggregate);
      EXPECT_EQ(a.queries[i].quantum_msec, b.queries[i].quantum_msec);
      EXPECT_EQ(a.queries[i].sim_start_msec, b.queries[i].sim_start_msec);
      EXPECT_EQ(a.queries[i].sim_finish_msec, b.queries[i].sim_finish_msec);
      EXPECT_EQ(a.queries[i].shared_l3_peak_occupancy_lines,
                b.queries[i].shared_l3_peak_occupancy_lines);
    }
  }
}

TEST(WorkloadContentionTest, LiveContendedScheduleMatchesReplay) {
  Engine engine = MakeContentionEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 3;
  spec.options.max_concurrent = 2;
  spec.options.contention = true;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  // The executor IS the event loop, so replaying the recorded
  // per-quantum durations through SimulateWorkloadSchedule must land on
  // the identical schedule.
  std::vector<std::vector<double>> quanta;
  for (const WorkloadQueryReport& q : report.queries) {
    quanta.push_back(q.quantum_msec);
  }
  const SimSchedule replay = ReplayDurations(
      quanta, spec.options.num_threads, spec.options.max_concurrent);
  ASSERT_EQ(replay.start_msec.size(), report.queries.size());
  for (size_t i = 0; i < report.queries.size(); ++i) {
    EXPECT_EQ(replay.start_msec[i], report.queries[i].sim_start_msec);
    EXPECT_EQ(replay.finish_msec[i], report.queries[i].sim_finish_msec);
  }
  EXPECT_EQ(replay.makespan_msec, report.sim_makespan_msec);
}

TEST(WorkloadContentionTest, SerializedContentionStillInterferes) {
  // max_concurrent = 1 serializes execution, but the shared L3 persists
  // across queries: later queries still displace earlier queries' dead
  // lines. Results stay solo-identical; the schedule is fully serial.
  Engine engine = MakeContentionEngine();
  WorkloadSpec spec;
  spec.queries.push_back(
      MakeEntry("join_a", JoinQuery(engine, "fact_a", "dim_a"), false));
  spec.queries.push_back(
      MakeEntry("join_b", JoinQuery(engine, "fact_b", "dim_b"), false));
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 1;
  spec.options.contention = true;
  spec.options.audit_contention = true;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.peak_in_flight, 1u);
  for (size_t i = 1; i < report.queries.size(); ++i) {
    EXPECT_GE(report.queries[i].sim_start_msec,
              report.queries[i - 1].sim_finish_msec);
  }
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const DriveResult solo = SoloDrive(engine, spec.queries[i]);
    EXPECT_EQ(report.queries[i].drive.qualifying_tuples,
              solo.qualifying_tuples);
    EXPECT_EQ(report.queries[i].drive.aggregate, solo.aggregate);
  }
}

}  // namespace
}  // namespace nipo
