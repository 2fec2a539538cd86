#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "exec/workload_driver.h"
#include "workload_replay.h"

// Differential test layer for the open-loop service mode (DESIGN.md
// Section 7 "Open-loop service mode"):
//  (a) open-loop at vanishing arrival rate with max_concurrent = 1 is
//      bit-identical — results AND counters — to solo Engine::Execute
//      runs;
//  (b) the simultaneous-arrival limit (rate -> infinity) reproduces the
//      closed-queue run event-for-event;
//  (c) latency figures are bit-identical across reruns for every
//      max_concurrent {1, 2, 8} and worker count, and the latency
//      decomposition (queue wait + in-service span) is exact;
//  (d) overload keeps queue wait monotonically growing while the
//      adaptive controller holds its floor-of-one progress guarantee;
// plus the QuantumTrace replay exactness of the full stack (arrivals +
// contention + adaptive) and AdmissionController unit behaviour.
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

Engine MakeServiceEngine() {
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

/// Six mixed queries (scans + joins, baseline + progressive) — the
/// heterogeneity the bit-equality claims must hold under.
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

/// Homogeneous workload: `n` copies of the same baseline scan, so every
/// in-service span is bit-identical — the analytic case of the overload
/// test.
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

// ---------------------------------------------------------------------------
// (a) Open-loop at vanishing arrival rate == solo runs, bit for bit.
// ---------------------------------------------------------------------------

TEST(ServiceModeTest, VanishingArrivalRateMatchesSoloRunsBitwise) {
  Engine engine = MakeServiceEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.max_concurrent = 1;
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  spec.options.arrival.rate_qps = 1e-3;  // 1e6 msec mean between arrivals
  const std::vector<double> arrivals =
      GenerateArrivalTimes(spec.options.arrival, spec.queries.size());
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
      EXPECT_EQ(q.drive.total, solo.total)  // every counter, exactly
          << q.name << ", " << threads << " threads";
      EXPECT_EQ(q.drive.qualifying_tuples, solo.qualifying_tuples) << q.name;
      EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;  // bitwise
      EXPECT_EQ(q.drive.simulated_msec, solo.simulated_msec) << q.name;
      EXPECT_EQ(q.final_order, solo_order) << q.name;
      // Each query runs alone: dispatched the instant it arrives, zero
      // queue wait, latency == its own execution span.
      EXPECT_EQ(q.sim_arrival_msec, arrivals[i]) << q.name;
      EXPECT_EQ(q.sim_start_msec, q.sim_arrival_msec) << q.name;
      EXPECT_EQ(q.sim_queue_wait_msec, 0.0) << q.name;
      EXPECT_EQ(q.sim_latency_msec, q.sim_finish_msec - q.sim_start_msec)
          << q.name;
      // The execution span is the query's own machine time (per-quantum
      // windows are side-effect-free, so the sum telescopes to the
      // full-run window up to floating-point association — the tolerance
      // covers accumulating at offsets of millions of msec).
      EXPECT_NEAR(q.sim_latency_msec, solo.simulated_msec,
                  1e-6 * solo.simulated_msec)
          << q.name;
    }
    EXPECT_EQ(report.queue_wait.max_msec, 0.0);
  }
}

// ---------------------------------------------------------------------------
// (b) Simultaneous arrivals == closed queue, event for event.
// ---------------------------------------------------------------------------

TEST(ServiceModeTest, SimultaneousArrivalsMatchClosedQueueEventForEvent) {
  Engine engine = MakeServiceEngine();
  for (size_t threads : TestThreadCounts()) {
    for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{8}}) {
      WorkloadSpec spec = MakeMixedWorkload(engine);
      spec.options.num_threads = threads;
      spec.options.max_concurrent = max_concurrent;
      auto closed_result = engine.Execute(spec);
      ASSERT_TRUE(closed_result.ok());
      const WorkloadReport& closed = closed_result.ValueOrDie();

      spec.options.arrival.kind = ArrivalKind::kPoisson;
      spec.options.arrival.rate_qps = std::numeric_limits<double>::infinity();
      auto open_result = engine.Execute(spec);
      ASSERT_TRUE(open_result.ok());
      const WorkloadReport& open = open_result.ValueOrDie();

      ASSERT_EQ(open.queries.size(), closed.queries.size());
      for (size_t i = 0; i < open.queries.size(); ++i) {
        const WorkloadQueryReport& oq = open.queries[i];
        const WorkloadQueryReport& cq = closed.queries[i];
        EXPECT_EQ(oq.drive.total, cq.drive.total) << oq.name;
        EXPECT_EQ(oq.drive.aggregate, cq.drive.aggregate) << oq.name;
        EXPECT_EQ(oq.quanta, cq.quanta) << oq.name;
        EXPECT_EQ(oq.quantum_msec, cq.quantum_msec) << oq.name;
        EXPECT_EQ(oq.sim_arrival_msec, 0.0) << oq.name;
        EXPECT_EQ(oq.sim_start_msec, cq.sim_start_msec) << oq.name;
        EXPECT_EQ(oq.sim_finish_msec, cq.sim_finish_msec) << oq.name;
        EXPECT_EQ(oq.sim_queue_wait_msec, cq.sim_queue_wait_msec) << oq.name;
        EXPECT_EQ(oq.sim_latency_msec, cq.sim_latency_msec) << oq.name;
      }
      EXPECT_EQ(open.sim_makespan_msec, closed.sim_makespan_msec);
      EXPECT_EQ(open.sim_queries_per_sec, closed.sim_queries_per_sec);
      EXPECT_EQ(open.latency, closed.latency);
      EXPECT_EQ(open.queue_wait, closed.queue_wait);
      EXPECT_EQ(open.peak_in_flight, closed.peak_in_flight);
    }
  }
}

// ---------------------------------------------------------------------------
// (c) Latency determinism across reruns x max_concurrent x threads, and
//     the exact latency decomposition.
// ---------------------------------------------------------------------------

TEST(ServiceModeTest, LatencyIsDeterministicAndDecomposesExactly) {
  Engine engine = MakeServiceEngine();
  for (size_t threads : TestThreadCounts()) {
    for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{8}}) {
      WorkloadSpec spec = MakeMixedWorkload(engine);
      spec.options.num_threads = threads;
      spec.options.max_concurrent = max_concurrent;
      spec.options.arrival.kind = ArrivalKind::kPoisson;
      spec.options.arrival.rate_qps = 100.0;
      spec.options.arrival.seed = 7;
      auto first = engine.Execute(spec);
      ASSERT_TRUE(first.ok());
      auto second = engine.Execute(spec);
      ASSERT_TRUE(second.ok());
      const WorkloadReport& a = first.ValueOrDie();
      const WorkloadReport& b = second.ValueOrDie();
      EXPECT_EQ(a.latency, b.latency);
      EXPECT_EQ(a.queue_wait, b.queue_wait);
      EXPECT_EQ(a.sim_makespan_msec, b.sim_makespan_msec);
      for (size_t i = 0; i < a.queries.size(); ++i) {
        const WorkloadQueryReport& qa = a.queries[i];
        const WorkloadQueryReport& qb = b.queries[i];
        EXPECT_EQ(qa.drive.total, qb.drive.total) << qa.name;
        EXPECT_EQ(qa.sim_arrival_msec, qb.sim_arrival_msec) << qa.name;
        EXPECT_EQ(qa.sim_latency_msec, qb.sim_latency_msec) << qa.name;
        EXPECT_EQ(qa.sim_queue_wait_msec, qb.sim_queue_wait_msec) << qa.name;
        EXPECT_EQ(qa.quantum_msec, qb.quantum_msec) << qa.name;
        // The decomposition is exact by construction, not approximate:
        EXPECT_EQ(qa.sim_queue_wait_msec,
                  qa.sim_start_msec - qa.sim_arrival_msec)
            << qa.name;
        EXPECT_EQ(qa.sim_latency_msec,
                  qa.sim_queue_wait_msec +
                      (qa.sim_finish_msec - qa.sim_start_msec))
            << qa.name;
        EXPECT_GE(qa.sim_start_msec, qa.sim_arrival_msec) << qa.name;
        // Side-effect-free quantum windows: the per-quantum durations
        // telescope to the query's full-run machine time (same counters,
        // only floating-point association differs).
        double quantum_sum = 0;
        for (const double d : qa.quantum_msec) quantum_sum += d;
        EXPECT_NEAR(quantum_sum, qa.drive.simulated_msec,
                    1e-9 * qa.drive.simulated_msec)
            << qa.name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QuantumTrace replay exactness of the full stack: open-loop arrivals +
// shared-L3 contention + adaptive admission rebuild the live schedule
// bit-for-bit from the recorded traces.
// ---------------------------------------------------------------------------

TEST(ServiceModeTest, OpenLoopAdaptiveContendedScheduleReplaysExactly) {
  Engine engine = MakeServiceEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 4;
  spec.options.contention = true;
  spec.options.audit_contention = true;
  spec.options.adaptive_admission = true;
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  spec.options.arrival.rate_qps = 200.0;
  spec.options.arrival.seed = 13;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  EXPECT_EQ(report.arrival_kind, ArrivalKind::kPoisson);
  EXPECT_TRUE(report.adaptive_admission);
  EXPECT_GE(report.admission_min_limit, 1u);

  const std::vector<double> arrivals =
      GenerateArrivalTimes(spec.options.arrival, spec.queries.size());
  AdaptiveAdmissionSpec adaptive;
  adaptive.l3_capacity_lines = report.shared_l3_capacity_lines;
  const SimSchedule replay = SimulateWorkloadSchedule(
      TracesOf(report), arrivals, spec.options.num_threads,
      spec.options.max_concurrent, SchedulePolicyConfig{}, &adaptive);
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const WorkloadQueryReport& q = report.queries[i];
    EXPECT_EQ(replay.arrival_msec[i], q.sim_arrival_msec) << q.name;
    EXPECT_EQ(replay.start_msec[i], q.sim_start_msec) << q.name;
    EXPECT_EQ(replay.finish_msec[i], q.sim_finish_msec) << q.name;
    EXPECT_EQ(replay.queue_wait_msec[i], q.sim_queue_wait_msec) << q.name;
    EXPECT_EQ(replay.latency_msec[i], q.sim_latency_msec) << q.name;
  }
  EXPECT_EQ(replay.makespan_msec, report.sim_makespan_msec);
}

// ---------------------------------------------------------------------------
// Schedule-level arrival semantics on hand-crafted quanta.
// ---------------------------------------------------------------------------

TEST(ServiceModeTest, SimulateWorkloadScheduleHonorsArrivals) {
  const std::vector<std::vector<QuantumTrace>> quanta = {{{10.0, 0}},
                                                         {{10.0, 0}}};
  // Second query arrives after the first finishes: the machine idles.
  SimSchedule gap = SimulateWorkloadSchedule(quanta, {0.0, 20.0}, 2, 2,
                                             SchedulePolicyConfig{});
  EXPECT_EQ(gap.start_msec, (std::vector<double>{0.0, 20.0}));
  EXPECT_EQ(gap.finish_msec, (std::vector<double>{10.0, 30.0}));
  EXPECT_EQ(gap.queue_wait_msec, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(gap.latency_msec, (std::vector<double>{10.0, 10.0}));
  EXPECT_EQ(gap.makespan_msec, 30.0);
  // Overlapping arrival with one admission slot: the second query queues
  // until the first completes.
  SimSchedule queued = SimulateWorkloadSchedule(quanta, {0.0, 5.0}, 2, 1,
                                                SchedulePolicyConfig{});
  EXPECT_EQ(queued.start_msec, (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(queued.finish_msec, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(queued.queue_wait_msec, (std::vector<double>{0.0, 5.0}));
  EXPECT_EQ(queued.latency_msec, (std::vector<double>{10.0, 15.0}));
  // Empty arrivals: the closed queue, everything arriving at t = 0.
  const SimSchedule closed = ReplayDurations({{10.0}, {10.0}}, 2, 1);
  EXPECT_EQ(closed.start_msec, (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(closed.finish_msec, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(closed.latency_msec, closed.finish_msec);  // arrive at 0
}

// ---------------------------------------------------------------------------
// (d) Overload: queue wait grows monotonically; the adaptive controller
//     never starves the workload.
// ---------------------------------------------------------------------------

TEST(ServiceModeTest, OverloadGrowsQueueWaitMonotonically) {
  Engine engine = MakeServiceEngine();
  WorkloadSpec spec = MakeHomogeneousWorkload(12);
  // Service rate anchor: one query's solo machine time.
  const DriveResult solo = SoloDrive(engine, spec.queries[0]);
  ASSERT_GT(solo.simulated_msec, 0.0);
  spec.options.num_threads = 1;
  spec.options.max_concurrent = 1;
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  // Arrivals 5x faster than the server drains: every gap shorter than a
  // service time adds another (service - gap) of backlog. Each Poisson
  // gap is that short with probability 1 - e^-5; all 11 of this seed's
  // are, so the wait grows at every query.
  spec.options.arrival.rate_qps = 5e3 / solo.simulated_msec;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  for (size_t i = 1; i < report.queries.size(); ++i) {
    EXPECT_GT(report.queries[i].sim_queue_wait_msec,
              report.queries[i - 1].sim_queue_wait_msec)
        << "query " << i;
  }
  EXPECT_GT(report.queue_wait.max_msec,
            5.0 * solo.simulated_msec);  // deep backlog by the tail
  EXPECT_EQ(report.queue_wait.max_msec,
            report.queries.back().sim_queue_wait_msec);
}

TEST(ServiceModeTest, AdaptiveControllerNeverStarvesUnderOverload) {
  Engine engine = MakeServiceEngine();
  WorkloadSpec spec = MakeHomogeneousWorkload(12);
  const DriveResult solo = SoloDrive(engine, spec.queries[0]);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 4;
  spec.options.contention = true;
  spec.options.audit_contention = true;
  spec.options.adaptive_admission = true;
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  spec.options.arrival.rate_qps = 5e3 / solo.simulated_msec;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  // The controller starts at its floor (slow-start) and never goes below
  // it; the unit tests below drive it back down to the floor.
  EXPECT_EQ(report.admission_min_limit, 1u);  // floor reached, never 0
  for (const WorkloadQueryReport& q : report.queries) {
    // Every query still completes: the floor admits one at a time.
    EXPECT_GT(q.drive.num_vectors, 0u) << q.name;
    EXPECT_GT(q.sim_finish_msec, q.sim_start_msec) << q.name;
    EXPECT_GE(q.sim_start_msec, q.sim_arrival_msec) << q.name;
  }
  EXPECT_GT(report.sim_makespan_msec, 0.0);
  // Still overloaded: the backlog (and so the queue-wait tail) grows.
  EXPECT_GT(report.queries.back().sim_queue_wait_msec,
            report.queries.front().sim_queue_wait_msec);
}

// ---------------------------------------------------------------------------
// AdmissionController unit behaviour.
// ---------------------------------------------------------------------------

// The controller's constants (admission.cc): 12-quantum epochs, pressure
// above 1% of L3 lines evicted per quantum, all clear below 0.3%,
// slowdown 1.5, crowding at 60% occupancy, and a start at the floor.
constexpr size_t kEpochQuanta = 12;
constexpr uint64_t kCapacityLines = 1'000;

// Feeds one decision epoch of identical quanta.
void FeedEpoch(AdmissionController* controller, uint64_t evictions,
               uint64_t occupancy, size_t waiting, double duration = 10.0) {
  for (size_t k = 0; k < kEpochQuanta; ++k) {
    controller->OnQuantum(k % 4, duration, evictions, occupancy,
                          /*in_flight=*/controller->limit(), waiting);
  }
}

TEST(ServiceModeTest, AdmissionControllerStepsDownUnderPressureUpWhenClear) {
  AdmissionController controller(/*num_queries=*/4, /*max_limit=*/4,
                                 kCapacityLines);
  EXPECT_EQ(controller.limit(), 1u);  // slow-start
  // One quantum short of an epoch decides nothing.
  for (size_t k = 0; k + 1 < kEpochQuanta; ++k) {
    controller.OnQuantum(k % 4, 10.0, /*evictions=*/0, /*occupancy=*/0,
                         /*in_flight=*/1, /*waiting=*/2);
  }
  EXPECT_EQ(controller.limit(), 1u);
  controller.OnQuantum(0, 10.0, 0, 0, 1, 2);
  EXPECT_EQ(controller.limit(), 2u);
  // All clear with demand (no evictions, no slowdown, an empty cache):
  // climbs to the ceiling, one step per epoch, and holds there.
  for (int epoch = 0; epoch < 4; ++epoch) {
    FeedEpoch(&controller, /*evictions=*/0, /*occupancy=*/0, /*waiting=*/2);
  }
  EXPECT_EQ(controller.limit(), 4u);
  EXPECT_EQ(controller.increases(), 3u);
  // Evictions between the two thresholds (0.5% of L3 per quantum): not
  // clear, not pressure — the limit holds.
  FeedEpoch(&controller, /*evictions=*/5, /*occupancy=*/0, /*waiting=*/2);
  EXPECT_EQ(controller.limit(), 4u);
  // Eviction pressure (2% of L3 per quantum): one step down per epoch
  // until the floor, never below it.
  for (int epoch = 0; epoch < 5; ++epoch) {
    const size_t before = controller.limit();
    FeedEpoch(&controller, /*evictions=*/20, /*occupancy=*/0, /*waiting=*/0);
    EXPECT_EQ(controller.limit(), before > 1 ? before - 1 : size_t{1});
  }
  EXPECT_EQ(controller.limit(), 1u);  // the floor, never 0
  EXPECT_EQ(controller.min_limit_seen(), 1u);
  EXPECT_EQ(controller.decreases(), 3u);
  // All clear but no demand: stays put.
  FeedEpoch(&controller, /*evictions=*/0, /*occupancy=*/0, /*waiting=*/0);
  EXPECT_EQ(controller.limit(), 1u);
  // Slowdown alone is pressure: quanta at twice the queries' best
  // duration step the limit down without a single eviction.
  FeedEpoch(&controller, 0, 0, /*waiting=*/2);
  EXPECT_EQ(controller.limit(), 2u);
  FeedEpoch(&controller, 0, 0, /*waiting=*/2, /*duration=*/20.0);
  EXPECT_EQ(controller.limit(), 1u);
}

TEST(ServiceModeTest, AdmissionControllerOccupancyGuardBlocksRaisesAndSheds) {
  AdmissionController controller(/*num_queries=*/4, /*max_limit=*/4,
                                 kCapacityLines);
  EXPECT_EQ(controller.limit(), 1u);  // slow-start
  // All clear with demand, but the cache is crowded (0.6 >= 0.6): the
  // guard blocks every raise — admitting more would create the next
  // collision — and the floor keeps the limit from shedding below one.
  for (int epoch = 0; epoch < 4; ++epoch) {
    FeedEpoch(&controller, /*evictions=*/0, /*occupancy=*/600, /*waiting=*/2);
  }
  EXPECT_EQ(controller.limit(), 1u);
  EXPECT_EQ(controller.increases(), 0u);
  // Occupancy drains below the guard: the same clear-with-demand feedback
  // now climbs one step per epoch to the ceiling.
  for (int epoch = 0; epoch < 3; ++epoch) {
    FeedEpoch(&controller, /*evictions=*/0, /*occupancy=*/599, /*waiting=*/2);
  }
  EXPECT_EQ(controller.limit(), 4u);
  EXPECT_EQ(controller.increases(), 3u);
  // Crowding alone — zero evictions, zero slowdown — sheds one step per
  // epoch back to the floor.
  for (int epoch = 0; epoch < 5; ++epoch) {
    FeedEpoch(&controller, /*evictions=*/0, /*occupancy=*/900, /*waiting=*/0);
  }
  EXPECT_EQ(controller.limit(), 1u);
  EXPECT_EQ(controller.decreases(), 3u);
  EXPECT_EQ(controller.min_limit_seen(), 1u);
}

TEST(ServiceModeTest, ServiceOptionsValidate) {
  Engine engine = MakeServiceEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  spec.options.arrival.rate_qps = 0;  // open kind needs a positive rate
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nipo
