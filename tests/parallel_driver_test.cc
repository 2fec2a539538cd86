#include "exec/parallel_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/prng.h"
#include "core/engine.h"

// Determinism and equivalence coverage for sharded execution (DESIGN.md
// "Parallel execution"):
//  - num_threads = 1 reproduces VectorDriver / the solo baseline drive
//    bit-identically (counters, aggregate, simulated_msec);
//  - num_threads in {2, 4, 8} agree with the single-threaded result on
//    qualifying_tuples and the (bitwise) aggregate, run after run, under
//    work-stealing schedules;
//  - every morsel is sampled exactly once, under its global index, and
//    the per-morsel samples sum to the merged totals.
// ci/check.sh runs this suite twice, with NIPO_TEST_THREADS=1 and =8; the
// env var *replaces* the default sweep below, so the two CI passes
// exercise genuinely different configurations (single-shard only, then
// 8-shard only).

namespace nipo {
namespace {

std::vector<size_t> TestThreadCounts() {
  if (const char* env = std::getenv("NIPO_TEST_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return {static_cast<size_t>(parsed)};
  }
  return {1, 2, 4, 8};
}

std::unique_ptr<Table> MakeTable(const std::string& name, size_t n,
                                 uint64_t seed = 1) {
  Prng prng(seed);
  std::vector<int32_t> a(n), b(n), c(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    c[i] = static_cast<int32_t>(prng.NextBounded(100));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(t->AddColumn("b", std::move(b)).ok());
  EXPECT_TRUE(t->AddColumn("c", std::move(c)).ok());
  EXPECT_TRUE(t->AddColumn("payload", std::move(payload)).ok());
  return t;
}

// Worst-first order: the most selective predicate (c < 2) runs last.
QuerySpec MakeQuery() {
  QuerySpec q;
  q.table = "t";
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 90.0}),
           OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0}),
           OperatorSpec::Predicate({"c", CompareOp::kLt, 2.0})};
  q.payload_columns = {"payload"};
  return q;
}

Engine MakeEngine(size_t rows) {
  Engine engine(HwConfig::ScaledXeon(8));
  EXPECT_TRUE(engine.RegisterTable(MakeTable("t", rows)).ok());
  return engine;
}

/// Fixed-order drive in `size`-tuple vectors (kSolo) or morsels
/// (kSharded, across `threads` workers).
ExecOptions BaselineOptions(ExecDriver driver, size_t size,
                            size_t threads = 1) {
  ExecOptions options;
  options.driver = driver;
  options.num_threads = threads;
  options.vector_size = size;
  return options;
}

/// Sharded progressive drive across `threads` workers; morsels are
/// `config.vector_size` tuples.
ExecOptions ShardedProgressiveOptions(const ProgressiveConfig& config,
                                      size_t threads) {
  ExecOptions options;
  options.mode = ExecMode::kProgressive;
  options.driver = ExecDriver::kSharded;
  options.num_threads = threads;
  options.progressive = config;
  return options;
}

TEST(ParallelDriverTest, SingleThreadIsBitIdenticalToVectorDriver) {
  Table table("t");
  Prng prng(3);
  std::vector<int32_t> a(50'000);
  for (auto& v : a) v = static_cast<int32_t>(prng.NextBounded(100));
  ASSERT_TRUE(table.AddColumn("a", std::move(a)).ok());
  const std::vector<OperatorSpec> ops = {
      OperatorSpec::Predicate({"a", CompareOp::kLt, 30.0})};

  Pmu reference_pmu(HwConfig::ScaledXeon(8));
  auto reference =
      PipelineExecutor::Compile(table, ops, {}, &reference_pmu);
  ASSERT_TRUE(reference.ok());
  VectorDriver vector_driver(reference.ValueOrDie().get(), 4'096);
  const DriveResult expected = vector_driver.Run();

  ParallelConfig config;
  config.num_threads = 1;
  config.morsel_size = 4'096;
  ParallelDriver driver(
      Pmu(HwConfig::ScaledXeon(8)),
      [&](Pmu* pmu) { return PipelineExecutor::Compile(table, ops, {}, pmu); },
      config);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok());
  const ParallelDriveResult& par = result.ValueOrDie();

  EXPECT_EQ(par.merged.total, expected.total);  // every counter, exactly
  EXPECT_EQ(par.merged.input_tuples, expected.input_tuples);
  EXPECT_EQ(par.merged.qualifying_tuples, expected.qualifying_tuples);
  EXPECT_EQ(par.merged.aggregate, expected.aggregate);  // bitwise
  EXPECT_EQ(par.merged.simulated_msec, expected.simulated_msec);
  EXPECT_EQ(par.merged.num_vectors, expected.num_vectors);
  EXPECT_EQ(par.num_morsels, expected.num_vectors);
  ASSERT_EQ(par.workers.size(), 1u);
  EXPECT_EQ(par.workers[0].morsels, expected.num_vectors);
  EXPECT_EQ(par.workers[0].steals, 0u);
}

TEST(ParallelDriverTest, EngineSingleThreadMatchesSoloBaseline) {
  Engine engine = MakeEngine(60'000);
  auto base =
      engine.Execute(MakeQuery(), BaselineOptions(ExecDriver::kSolo, 2'048));
  ASSERT_TRUE(base.ok());
  auto par = engine.Execute(MakeQuery(),
                            BaselineOptions(ExecDriver::kSharded, 2'048));
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(par.ValueOrDie().sharded_baseline.has_value());
  const ParallelBaselineReport& sharded = *par.ValueOrDie().sharded_baseline;
  EXPECT_EQ(sharded.drive.merged.total, base.ValueOrDie().counters);
  EXPECT_EQ(sharded.drive.merged.aggregate, base.ValueOrDie().aggregate);
  EXPECT_EQ(sharded.drive.merged.simulated_msec,
            base.ValueOrDie().simulated_msec);
  EXPECT_EQ(sharded.order, base.ValueOrDie().final_order);
}

TEST(ParallelDriverTest, ThreadCountsAgreeOnResultsAcrossRuns) {
  Engine engine = MakeEngine(60'000);
  auto base =
      engine.Execute(MakeQuery(), BaselineOptions(ExecDriver::kSolo, 2'048));
  ASSERT_TRUE(base.ok());
  const uint64_t expected_qualifying = base.ValueOrDie().qualifying_tuples;
  const double expected_aggregate = base.ValueOrDie().aggregate;
  for (size_t threads : TestThreadCounts()) {
    for (int run = 0; run < 2; ++run) {
      auto par = engine.Execute(
          MakeQuery(), BaselineOptions(ExecDriver::kSharded, 2'048, threads));
      ASSERT_TRUE(par.ok());
      ASSERT_TRUE(par.ValueOrDie().sharded_baseline.has_value());
      const ParallelDriveResult& drive =
          par.ValueOrDie().sharded_baseline->drive;
      EXPECT_EQ(drive.merged.qualifying_tuples, expected_qualifying)
          << threads << " threads, run " << run;
      // The morsel-index-ordered merge makes the floating-point sum
      // bit-stable across schedules and thread counts.
      EXPECT_EQ(drive.merged.aggregate, expected_aggregate)
          << threads << " threads, run " << run;
      EXPECT_EQ(drive.merged.input_tuples, 60'000u);
      // Work conservation: every morsel executed exactly once.
      uint64_t morsels = 0;
      for (const WorkerStats& w : drive.workers) morsels += w.morsels;
      EXPECT_EQ(morsels, drive.num_morsels);
    }
  }
}

TEST(ParallelDriverTest, SamplesInterleaveDeterministicallyByMorselIndex) {
  Engine engine = MakeEngine(30'000);
  auto table = engine.GetTable("t");
  ASSERT_TRUE(table.ok());
  const QuerySpec query = MakeQuery();
  ParallelConfig config;
  config.num_threads = 4;
  config.morsel_size = 1'024;
  ParallelDriver driver(
      engine.NewMachine(),
      [&](Pmu* pmu) {
        return PipelineExecutor::Compile(*table.ValueOrDie(), query.ops,
                                         query.payload_columns, pmu);
      },
      config);
  // A hook turns per-morsel sampling on; this one records every morsel
  // (hooks run serially, under the coordinator lock) and never
  // broadcasts.
  std::vector<MorselRecord> records;
  auto result = driver.Run(std::nullopt, [&records](const MorselRecord& r) {
    records.push_back(r);
    return std::optional<std::vector<size_t>>{};
  });
  ASSERT_TRUE(result.ok());
  const ParallelDriveResult& par = result.ValueOrDie();
  ASSERT_EQ(records.size(), par.num_morsels);
  std::sort(records.begin(), records.end(),
            [](const MorselRecord& a, const MorselRecord& b) {
              return a.sample.vector_index < b.sample.vector_index;
            });
  PmuCounters event_sum;
  uint64_t tuple_sum = 0;
  for (size_t m = 0; m < records.size(); ++m) {
    EXPECT_EQ(records[m].sample.vector_index, m);
    EXPECT_LT(records[m].worker_id, config.num_threads);
    EXPECT_EQ(records[m].order_version, 0u);  // no broadcasts
    event_sum += records[m].sample.counters;
    tuple_sum += records[m].sample.result.input_tuples;
  }
  EXPECT_EQ(tuple_sum, 30'000u);
  // Event counters (not cycles: the read-pair charges land partly outside
  // the per-morsel windows) sum exactly to the merged totals.
  EXPECT_EQ(event_sum.branches, par.merged.total.branches);
  EXPECT_EQ(event_sum.branches_not_taken,
            par.merged.total.branches_not_taken);
  EXPECT_EQ(event_sum.l3_accesses, par.merged.total.l3_accesses);
  EXPECT_EQ(event_sum.instructions, par.merged.total.instructions);
}

TEST(ParallelDriverTest, HookBroadcastReachesAllWorkers) {
  Engine engine = MakeEngine(40'000);
  auto table = engine.GetTable("t");
  ASSERT_TRUE(table.ok());
  const QuerySpec query = MakeQuery();
  ParallelConfig config;
  config.num_threads = 4;
  config.morsel_size = 1'024;
  bool broadcast_sent = false;
  uint64_t new_plan_morsels = 0;
  ParallelDriver driver(
      engine.NewMachine(),
      [&](Pmu* pmu) {
        return PipelineExecutor::Compile(*table.ValueOrDie(), query.ops,
                                         query.payload_columns, pmu);
      },
      config);
  auto result = driver.Run(
      std::nullopt,
      [&](const MorselRecord& record) -> std::optional<std::vector<size_t>> {
        if (record.order_version == 1) ++new_plan_morsels;
        if (!broadcast_sent && record.sample.vector_index >= 3) {
          broadcast_sent = true;
          return std::vector<size_t>{2, 1, 0};
        }
        return std::nullopt;
      });
  ASSERT_TRUE(result.ok());
  const ParallelDriveResult& par = result.ValueOrDie();
  EXPECT_TRUE(broadcast_sent);
  // Late morsels ran under the broadcast order; results are unaffected.
  EXPECT_GT(new_plan_morsels, 0u);
  auto base =
      engine.Execute(MakeQuery(), BaselineOptions(ExecDriver::kSolo, 1'024));
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(par.merged.qualifying_tuples, base.ValueOrDie().qualifying_tuples);
  EXPECT_EQ(par.merged.aggregate, base.ValueOrDie().aggregate);
}

TEST(ParallelDriverTest, ProgressiveParallelMatchesBaselineResults) {
  Engine engine = MakeEngine(120'000);
  auto base =
      engine.Execute(MakeQuery(), BaselineOptions(ExecDriver::kSolo, 2'048));
  ASSERT_TRUE(base.ok());
  for (size_t threads : TestThreadCounts()) {
    ProgressiveConfig config;
    config.vector_size = 2'048;
    config.reopt_interval = 2;
    auto prog = engine.Execute(MakeQuery(),
                               ShardedProgressiveOptions(config, threads));
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(prog.ValueOrDie().sharded_progressive.has_value());
    EXPECT_EQ(prog.ValueOrDie().qualifying_tuples,
              base.ValueOrDie().qualifying_tuples)
        << threads << " threads";
    EXPECT_EQ(prog.ValueOrDie().aggregate, base.ValueOrDie().aggregate)
        << threads << " threads";
  }
}

TEST(ParallelDriverTest, ProgressiveParallelReordersWorstFirstOrder) {
  Engine engine = MakeEngine(120'000);
  ProgressiveConfig config;
  config.vector_size = 2'048;
  config.reopt_interval = 2;
  // One thread: a deterministic coordinator schedule.
  auto prog =
      engine.Execute(MakeQuery(), ShardedProgressiveOptions(config, 1));
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(prog.ValueOrDie().sharded_progressive.has_value());
  const ParallelProgressiveReport& report =
      *prog.ValueOrDie().sharded_progressive;
  // The query is worst-first (c, the ~2% predicate, evaluated last); the
  // merged-window coordinator must discover and broadcast a better order.
  ASSERT_FALSE(report.changes.empty());
  ASSERT_EQ(report.final_order.size(), 3u);
  EXPECT_EQ(report.final_order.front(), 2u);  // most selective first
  // Progressive beats the worst-first fixed order on machine time.
  auto base =
      engine.Execute(MakeQuery(), BaselineOptions(ExecDriver::kSolo, 2'048));
  ASSERT_TRUE(base.ok());
  EXPECT_LT(report.drive.merged.simulated_msec,
            base.ValueOrDie().simulated_msec);
}

TEST(ParallelDriverTest, ProgressiveSingleThreadIsDeterministic) {
  Engine engine = MakeEngine(80'000);
  ProgressiveConfig config;
  config.vector_size = 2'048;
  config.reopt_interval = 2;
  auto a = engine.Execute(MakeQuery(), ShardedProgressiveOptions(config, 1));
  auto b = engine.Execute(MakeQuery(), ShardedProgressiveOptions(config, 1));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a.ValueOrDie().sharded_progressive.has_value());
  ASSERT_TRUE(b.ValueOrDie().sharded_progressive.has_value());
  EXPECT_EQ(a.ValueOrDie().counters, b.ValueOrDie().counters);
  EXPECT_EQ(a.ValueOrDie().final_order, b.ValueOrDie().final_order);
  EXPECT_EQ(a.ValueOrDie().sharded_progressive->changes.size(),
            b.ValueOrDie().sharded_progressive->changes.size());
}

TEST(ParallelDriverTest, ErrorsPropagate) {
  Engine engine = MakeEngine(1'000);
  ExecOptions options = BaselineOptions(ExecDriver::kSharded, 1'024, 0);
  EXPECT_EQ(engine.Execute(MakeQuery(), options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaselineOptions(ExecDriver::kSharded, 0, 2);
  EXPECT_EQ(engine.Execute(MakeQuery(), options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaselineOptions(ExecDriver::kSharded, 1'024, 2);
  QuerySpec bad = MakeQuery();
  bad.table = "missing";
  EXPECT_EQ(engine.Execute(bad, options).status().code(),
            StatusCode::kNotFound);
  options.order = std::vector<size_t>{0, 0, 0};
  EXPECT_FALSE(engine.Execute(MakeQuery(), options).ok());
  ProgressiveConfig config;
  config.vector_size = 0;
  EXPECT_EQ(engine.Execute(MakeQuery(), ShardedProgressiveOptions(config, 2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nipo
