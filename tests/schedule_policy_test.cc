#include <gtest/gtest.h>

#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "exec/workload_driver.h"
#include "workload_replay.h"

// Coverage for the admission-control policies of the workload scheduler
// (SchedulePolicy in exec/workload_driver.h): footprint-aware
// co-scheduling never pairs queries whose combined estimated footprint
// exceeds the L3 budget when an alternative pairing exists (and keeps a
// progress guarantee when nothing fits), and the engine plumbs policy +
// cost-model estimates end to end without touching any per-query
// counter.

namespace nipo {
namespace {

SchedulePolicyConfig Config(SchedulePolicy policy,
                            std::vector<ScheduleTaskInfo> tasks,
                            uint64_t l3_capacity_bytes = 0) {
  SchedulePolicyConfig cfg;
  cfg.policy = policy;
  cfg.l3_capacity_bytes = l3_capacity_bytes;
  cfg.tasks = std::move(tasks);
  return cfg;
}

/// True iff queries a and b ever run at the same simulated time.
bool Overlaps(const SimSchedule& s, size_t a, size_t b) {
  return s.start_msec[a] < s.finish_msec[b] &&
         s.start_msec[b] < s.finish_msec[a];
}

TEST(SchedulePolicyTest, FootprintAwareAvoidsOvercapacityPairing) {
  // Footprints {60, 60, 30} against a 100-byte budget, two admission
  // slots, two workers. FIFO co-schedules q0+q1 (120 > 100); the
  // footprint policy must skip q1 and pair q0 with q2 instead.
  const std::vector<std::vector<double>> quanta = {
      {10.0, 10.0}, {10.0, 10.0}, {10.0, 10.0}};
  const std::vector<ScheduleTaskInfo> tasks = {
      {0, 60}, {0, 60}, {0, 30}};
  const SimSchedule fifo = ReplayDurations(
      quanta, 2, 2, Config(SchedulePolicy::kFifo, tasks, 100));
  EXPECT_TRUE(Overlaps(fifo, 0, 1));  // the pairing being avoided
  const SimSchedule fp = ReplayDurations(
      quanta, 2, 2, Config(SchedulePolicy::kFootprintAware, tasks, 100));
  EXPECT_TRUE(Overlaps(fp, 0, 2));    // the alternative pairing
  EXPECT_FALSE(Overlaps(fp, 0, 1));   // 60 + 60 never co-resident
  for (size_t q = 0; q < quanta.size(); ++q) {
    EXPECT_GT(fp.finish_msec[q], fp.start_msec[q]);
  }
}

TEST(SchedulePolicyTest, FootprintAwareProgressGuarantee) {
  // Every footprint exceeds capacity (estimates are capped at capacity,
  // which is what makes such queries admissible at all): the machine
  // never idles forever — queries run, one at a time.
  const std::vector<std::vector<double>> quanta = {{6.0}, {6.0}};
  const SimSchedule s = ReplayDurations(
      quanta, 2, 2,
      Config(SchedulePolicy::kFootprintAware, {{0, 200}, {0, 150}},
             100));
  EXPECT_FALSE(Overlaps(s, 0, 1));
  EXPECT_EQ(s.start_msec[1], s.finish_msec[0]);
  EXPECT_EQ(s.makespan_msec, 12.0);
}

TEST(SchedulePolicyTest, FootprintAwareWithoutBudgetDegeneratesToFifo) {
  const std::vector<std::vector<double>> quanta = {
      {3.0, 3.0}, {3.0}, {3.0, 3.0}, {3.0}};
  const std::vector<ScheduleTaskInfo> tasks = {
      {0, 64}, {0, 32}, {0, 16}, {0, 8}};
  const SimSchedule fifo = ReplayDurations(
      quanta, 2, 2, Config(SchedulePolicy::kFifo, tasks, 0));
  const SimSchedule fp = ReplayDurations(
      quanta, 2, 2, Config(SchedulePolicy::kFootprintAware, tasks, 0));
  EXPECT_EQ(fp.start_msec, fifo.start_msec);
  EXPECT_EQ(fp.finish_msec, fifo.finish_msec);
  EXPECT_EQ(fp.makespan_msec, fifo.makespan_msec);
}

// ---------------------------------------------------------------------
// Engine-level plumbing: policies reorder admission only; every query's
// results and counters stay bit-identical to FIFO (contention off).

constexpr size_t kDimRows = 10'001;

std::unique_ptr<Table> MakeFact(const std::string& name, size_t n,
                                uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> a(n), fk(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(kDimRows));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(t->AddColumn("fk", std::move(fk)).ok());
  EXPECT_TRUE(t->AddColumn("payload", std::move(payload)).ok());
  return t;
}

Engine MakePolicyEngine() {
  Engine engine(HwConfig::ScaledXeon(16));
  EXPECT_TRUE(engine.RegisterTable(MakeFact("small", 10'000, 1)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeFact("large", 50'000, 2)).ok());
  Prng prng(3);
  std::vector<int32_t> attr(kDimRows);
  for (auto& v : attr) v = static_cast<int32_t>(prng.NextBounded(100));
  auto dim = std::make_unique<Table>("dim");
  EXPECT_TRUE(dim->AddColumn("attr", std::move(attr)).ok());
  EXPECT_TRUE(engine.RegisterTable(std::move(dim)).ok());
  return engine;
}

WorkloadSpec MakePolicyWorkload(const Engine& engine) {
  WorkloadSpec spec;
  auto add = [&](std::string name, const std::string& table) {
    WorkloadQuery q;
    q.name = std::move(name);
    q.query.table = table;
    q.query.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 60.0}),
                   OperatorSpec::FkProbe(
                       {"fk", engine.GetTable("dim").ValueOrDie(), "attr",
                        CompareOp::kLt, 40.0})};
    q.query.payload_columns = {"payload"};
    q.config.vector_size = 2'048;
    spec.queries.push_back(std::move(q));
  };
  add("large_0", "large");
  add("small_0", "small");
  add("large_1", "large");
  add("small_1", "small");
  spec.options.num_threads = 1;
  spec.options.max_concurrent = 1;
  return spec;
}

TEST(SchedulePolicyTest, PoliciesLeaveQueryCountersUntouched) {
  Engine engine = MakePolicyEngine();
  WorkloadSpec spec = MakePolicyWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  auto fifo = engine.Execute(spec);
  ASSERT_TRUE(fifo.ok());
  spec.options.policy = SchedulePolicy::kFootprintAware;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  for (size_t i = 0; i < report.queries.size(); ++i) {
    // Admission order is the only degree of freedom: per-query work is
    // bit-identical under every policy (private machines, no shared
    // state).
    EXPECT_EQ(report.queries[i].drive.total,
              fifo.ValueOrDie().queries[i].drive.total)
        << report.queries[i].name;
    EXPECT_EQ(report.queries[i].drive.aggregate,
              fifo.ValueOrDie().queries[i].drive.aggregate);
  }
}

TEST(SchedulePolicyTest, EngineFootprintAwareSerializesThrashingPair) {
  // Two queries that each claim most of the L3 (footprint estimates from
  // the cost model) must not be co-scheduled when slots would allow it.
  Engine engine(HwConfig::ScaledXeon(16));
  ASSERT_TRUE(engine.RegisterTable(MakeFact("big_a", 60'000, 10)).ok());
  ASSERT_TRUE(engine.RegisterTable(MakeFact("big_b", 60'000, 11)).ok());
  WorkloadSpec spec;
  for (const std::string table : {"big_a", "big_b"}) {
    WorkloadQuery q;
    q.name = table;
    q.query.table = table;
    q.query.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 60.0})};
    q.query.payload_columns = {"payload"};
    q.config.vector_size = 2'048;
    spec.queries.push_back(std::move(q));
  }
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  spec.options.policy = SchedulePolicy::kFootprintAware;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  // Each streams ~700 KB against a 960 KB L3: capped claims exhaust the
  // budget, so the second query waits for the first to complete.
  EXPECT_EQ(report.peak_in_flight, 1u);
  EXPECT_GE(report.queries[1].sim_start_msec,
            report.queries[0].sim_finish_msec);
}

}  // namespace
}  // namespace nipo
