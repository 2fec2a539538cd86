#include "optimizer/progressive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/prng.h"
#include "tpch/q6.h"
#include "tpch/tpch_gen.h"

namespace nipo {
namespace {

/// Three-predicate fixture with known selectivities; values drawn i.i.d.
struct Fixture {
  Table table{"t"};
  Pmu pmu{HwConfig::ScaledXeon(8)};
  std::unique_ptr<PipelineExecutor> exec;
  uint64_t expected_qualifying = 0;

  Fixture(size_t n, double pa, double pb, double pc, uint64_t seed = 1) {
    Prng prng(seed);
    std::vector<int32_t> a(n), b(n), c(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(prng.NextBounded(1000));
      b[i] = static_cast<int32_t>(prng.NextBounded(1000));
      c[i] = static_cast<int32_t>(prng.NextBounded(1000));
      if (a[i] < pa * 1000 && b[i] < pb * 1000 && c[i] < pc * 1000) {
        ++expected_qualifying;
      }
    }
    EXPECT_TRUE(table.AddColumn("a", std::move(a)).ok());
    EXPECT_TRUE(table.AddColumn("b", std::move(b)).ok());
    EXPECT_TRUE(table.AddColumn("c", std::move(c)).ok());
    auto compiled = PipelineExecutor::Compile(
        table,
        {OperatorSpec::Predicate({"a", CompareOp::kLt, pa * 1000}),
         OperatorSpec::Predicate({"b", CompareOp::kLt, pb * 1000}),
         OperatorSpec::Predicate({"c", CompareOp::kLt, pc * 1000})},
        {}, &pmu);
    EXPECT_TRUE(compiled.ok());
    exec = std::move(compiled).ValueOrDie();
  }
};

ProgressiveConfig FastConfig() {
  ProgressiveConfig cfg;
  cfg.vector_size = 8'192;
  cfg.reopt_interval = 2;
  return cfg;
}

TEST(ProgressiveTest, ResultIsCorrect) {
  Fixture fx(100'000, 0.9, 0.5, 0.1);
  ProgressiveOptimizer opt(fx.exec.get(), FastConfig());
  const ProgressiveReport report = opt.Run();
  EXPECT_EQ(report.drive.qualifying_tuples, fx.expected_qualifying);
  EXPECT_EQ(report.drive.input_tuples, 100'000u);
}

/// Simulated msec of each of the six fixed orders of Fixture(n, pa, pb,
/// pc), vector by vector as the progressive driver runs them.
std::vector<std::pair<double, std::vector<size_t>>> FixedOrderTimes(
    size_t n, double pa, double pb, double pc, size_t vector_size) {
  std::vector<std::pair<double, std::vector<size_t>>> times;
  std::vector<size_t> order = {0, 1, 2};
  do {
    Fixture fx(n, pa, pb, pc);
    EXPECT_TRUE(fx.exec->Reorder(order).ok());
    times.emplace_back(
        VectorDriver(fx.exec.get(), vector_size).Run().simulated_msec, order);
  } while (std::next_permutation(order.begin(), order.end()));
  return times;
}

TEST(ProgressiveTest, ConvergesToFastestFixedOrder) {
  // Initial order a(0.9), b(0.5), c(0.1): worst-first. The optimizer must
  // end on the fixed order with the lowest simulated time of all six.
  const auto times = FixedOrderTimes(200'000, 0.9, 0.5, 0.1, 8'192);
  const auto fastest = *std::min_element(times.begin(), times.end());
  Fixture fx(200'000, 0.9, 0.5, 0.1);
  ProgressiveOptimizer opt(fx.exec.get(), FastConfig());
  const ProgressiveReport report = opt.Run();
  EXPECT_EQ(report.final_order, fastest.second);
  EXPECT_GE(report.num_optimizations, 1u);
  ASSERT_FALSE(report.changes.empty());
  EXPECT_FALSE(report.changes.front().reverted);
}

TEST(ProgressiveTest, BeatsBadBaselineOrder) {
  Fixture fx_prog(200'000, 0.95, 0.5, 0.05);
  ProgressiveOptimizer opt(fx_prog.exec.get(), FastConfig());
  const ProgressiveReport prog = opt.Run();

  Fixture fx_base(200'000, 0.95, 0.5, 0.05);
  const DriveResult base = VectorDriver(fx_base.exec.get(), 8'192).Run();

  EXPECT_LT(prog.drive.simulated_msec, base.simulated_msec * 0.75);
}

TEST(ProgressiveTest, NearOptimalStartStaysPut) {
  // Initial order already ascending: no order change should stick.
  Fixture fx(100'000, 0.1, 0.5, 0.9);
  ProgressiveOptimizer opt(fx.exec.get(), FastConfig());
  const ProgressiveReport report = opt.Run();
  EXPECT_EQ(report.final_order, (std::vector<size_t>{0, 1, 2}));
}

TEST(ProgressiveTest, OverheadOnOptimalOrderIsBounded) {
  Fixture fx_prog(200'000, 0.1, 0.5, 0.9);
  ProgressiveOptimizer opt(fx_prog.exec.get(), FastConfig());
  const ProgressiveReport prog = opt.Run();

  Fixture fx_base(200'000, 0.1, 0.5, 0.9);
  const DriveResult base = VectorDriver(fx_base.exec.get(), 8'192).Run();
  // Monitoring + estimation must cost < 5% on an already optimal plan.
  EXPECT_LT(prog.drive.simulated_msec, base.simulated_msec * 1.05);
}

TEST(ProgressiveTest, LastEstimateTracksTruth) {
  Fixture fx(200'000, 0.8, 0.4, 0.2);
  ProgressiveConfig cfg = FastConfig();
  ProgressiveOptimizer opt(fx.exec.get(), cfg);
  const ProgressiveReport report = opt.Run();
  ASSERT_EQ(report.last_estimate.size(), 3u);
  // The run ends on the fastest fixed order, and the estimate is in that
  // order.
  const auto times = FixedOrderTimes(200'000, 0.8, 0.4, 0.2, 8'192);
  ASSERT_EQ(report.final_order,
            std::min_element(times.begin(), times.end())->second);
  const double truth[3] = {0.8, 0.4, 0.2};
  const double tolerance[3] = {0.1, 0.12, 0.12};
  for (size_t pos = 0; pos < 3; ++pos) {
    EXPECT_NEAR(report.last_estimate[pos], truth[report.final_order[pos]],
                tolerance[pos])
        << "position " << pos;
  }
}

TEST(ProgressiveTest, EstimateUsesTheScannedColumnShape) {
  // Plain storage with an int64 predicate column and no payload columns:
  // the estimator's scan shape describes the columns the pipeline scans.
  // One optimization, on the last vector, so last_estimate is that
  // vector's sample in the initial order and the truth is exact.
  constexpr size_t kVector = 8'192;
  constexpr size_t kVectors = 4;
  constexpr size_t n = kVector * kVectors;
  const double limits[3] = {200, 500, 900};
  Prng prng(3);
  std::vector<std::vector<int64_t>> values(3, std::vector<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    for (auto& column : values) {
      column[i] = static_cast<int64_t>(prng.NextBounded(1000));
    }
  }
  // True conditional selectivities over the last vector, in order a, b, c.
  std::vector<double> truth;
  std::vector<size_t> alive;
  for (size_t i = n - kVector; i < n; ++i) alive.push_back(i);
  for (size_t k = 0; k < 3; ++k) {
    std::vector<size_t> passed;
    for (size_t i : alive) {
      if (static_cast<double>(values[k][i]) < limits[k]) passed.push_back(i);
    }
    truth.push_back(static_cast<double>(passed.size()) /
                    static_cast<double>(alive.size()));
    alive = std::move(passed);
  }
  auto narrow = [](const std::vector<int64_t>& v) {
    return std::vector<int32_t>(v.begin(), v.end());
  };
  Table table("t");
  ASSERT_TRUE(table.AddColumn("a", narrow(values[0])).ok());
  ASSERT_TRUE(table.AddColumn("b", std::move(values[1])).ok());
  ASSERT_TRUE(table.AddColumn("c", narrow(values[2])).ok());
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(
      table,
      {OperatorSpec::Predicate({"a", CompareOp::kLt, limits[0]}),
       OperatorSpec::Predicate({"b", CompareOp::kLt, limits[1]}),
       OperatorSpec::Predicate({"c", CompareOp::kLt, limits[2]})},
      {}, &pmu);
  ASSERT_TRUE(exec.ok());
  ProgressiveConfig cfg;
  cfg.vector_size = kVector;
  cfg.reopt_interval = kVectors;
  ProgressiveOptimizer opt(exec.ValueOrDie().get(), cfg);
  const ProgressiveReport report = opt.Run();
  ASSERT_EQ(report.num_optimizations, 1u);
  ASSERT_EQ(report.last_estimate.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(report.last_estimate[k], truth[k], 0.005)
        << "predicate " << k;
  }
}

TEST(ProgressiveTest, ReoptIntervalControlsOptimizationCount) {
  Fixture fx_a(100'000, 0.5, 0.5, 0.5);
  ProgressiveConfig cfg = FastConfig();
  cfg.reopt_interval = 2;
  ProgressiveOptimizer opt_a(fx_a.exec.get(), cfg);
  const size_t frequent = opt_a.Run().num_optimizations;

  Fixture fx_b(100'000, 0.5, 0.5, 0.5);
  cfg.reopt_interval = 6;
  ProgressiveOptimizer opt_b(fx_b.exec.get(), cfg);
  const size_t rare = opt_b.Run().num_optimizations;
  EXPECT_GT(frequent, rare);
  EXPECT_GE(rare, 1u);
}

TEST(ProgressiveTest, AdaptsToMidTableDistributionShift) {
  // First half favors a-first, second half favors b-first; expect at
  // least one order change after the shift point.
  const size_t n = 200'000;
  Prng prng(5);
  std::vector<int32_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    if (i < n / 2) {
      a[i] = static_cast<int32_t>(prng.NextBounded(1000));  // a<100: 10%
      b[i] = static_cast<int32_t>(prng.NextBounded(110));   // b<100: ~91%
    } else {
      a[i] = static_cast<int32_t>(prng.NextBounded(110));
      b[i] = static_cast<int32_t>(prng.NextBounded(1000));
    }
  }
  Table t("t");
  ASSERT_TRUE(t.AddColumn("a", std::move(a)).ok());
  ASSERT_TRUE(t.AddColumn("b", std::move(b)).ok());
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(
      t,
      {OperatorSpec::Predicate({"a", CompareOp::kLt, 100.0}),
       OperatorSpec::Predicate({"b", CompareOp::kLt, 100.0})},
      {}, &pmu);
  ASSERT_TRUE(exec.ok());
  ProgressiveOptimizer opt(exec.ValueOrDie().get(), FastConfig());
  const ProgressiveReport report = opt.Run();
  // The shift is at vector 100000/8192 ~ 12; a change must land after it.
  bool change_after_shift = false;
  for (const PeoChange& change : report.changes) {
    if (!change.reverted && change.vector_index >= 12) {
      change_after_shift = true;
    }
  }
  EXPECT_TRUE(change_after_shift);
  EXPECT_EQ(report.final_order, (std::vector<size_t>{1, 0}));
}

TEST(ProgressiveTest, ValidationRevertsRegressedChange) {
  // Worst-first order a(0.9), b(0.5), c(0.1). Two real vectors make the
  // optimizer reorder; a third vector priced at twice the second's cycles
  // regresses past the threshold, so validation restores the old order.
  Fixture fx(30'000, 0.9, 0.5, 0.1);
  ProgressiveOptimizer opt(fx.exec.get(), FastConfig());
  opt.Begin();
  opt.OnVector(SampleRange(fx.exec.get(), 0, 8'192, 0));
  const VectorSample second = SampleRange(fx.exec.get(), 8'192, 16'384, 1);
  opt.OnVector(second);
  ASSERT_EQ(fx.exec->current_order(), (std::vector<size_t>{2, 0, 1}));

  VectorSample third = second;
  third.vector_index = 2;
  third.counters.cycles *= 2;
  opt.OnVector(third);
  EXPECT_EQ(fx.exec->current_order(), (std::vector<size_t>{0, 1, 2}));
  const ProgressiveReport report = opt.Finish(DriveResult{});
  ASSERT_EQ(report.changes.size(), 1u);
  EXPECT_TRUE(report.changes.front().reverted);
  EXPECT_EQ(report.changes.front().old_order, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(report.final_order, (std::vector<size_t>{0, 1, 2}));
}

TEST(ProgressiveTest, ExpensivePredicateDeferredDespiteSelectivity) {
  // Predicate e is slightly more selective (0.4) than f (0.5) but 30x more
  // expensive; the cost-aware rank must put f first.
  const size_t n = 150'000;
  Prng prng(6);
  std::vector<int32_t> e(n), f(n);
  for (size_t i = 0; i < n; ++i) {
    e[i] = static_cast<int32_t>(prng.NextBounded(1000));
    f[i] = static_cast<int32_t>(prng.NextBounded(1000));
  }
  Table t("t");
  ASSERT_TRUE(t.AddColumn("e", std::move(e)).ok());
  ASSERT_TRUE(t.AddColumn("f", std::move(f)).ok());
  Pmu pmu(HwConfig::ScaledXeon(8));
  PredicateSpec expensive{"e", CompareOp::kLt, 400.0};
  expensive.extra_instructions = 90.0;
  auto exec = PipelineExecutor::Compile(
      t,
      {OperatorSpec::Predicate(expensive),
       OperatorSpec::Predicate({"f", CompareOp::kLt, 500.0})},
      {}, &pmu);
  ASSERT_TRUE(exec.ok());
  ProgressiveOptimizer opt(exec.ValueOrDie().get(), FastConfig());
  const ProgressiveReport report = opt.Run();
  EXPECT_EQ(report.final_order, (std::vector<size_t>{1, 0}));
}

/// A fact table with predicate columns and FK columns into dimension
/// tables, and the pipelines the probe tests compile over it.
struct ProbeFixture {
  Table fact{"fact"};
  std::vector<std::unique_ptr<Table>> dims;
  std::vector<OperatorSpec> ops;

  /// Adds predicate column `name` of i.i.d. values passing with
  /// selectivity `s`.
  void AddPredicate(const std::string& name, size_t n, double s,
                    uint64_t seed) {
    Prng prng(seed);
    std::vector<int32_t> v(n);
    for (int32_t& x : v) x = static_cast<int32_t>(prng.NextBounded(1000));
    EXPECT_TRUE(fact.AddColumn(name, std::move(v)).ok());
    ops.push_back(OperatorSpec::Predicate({name, CompareOp::kLt, s * 1000}));
  }

  /// Adds FK column `name` into a new dimension of `dim_rows` rows whose
  /// filter passes with selectivity `s`. Co-clustered keys rise with the
  /// fact row (fact_rows / dim_rows rows per key); others are uniform.
  void AddProbe(const std::string& name, size_t n, size_t dim_rows, double s,
                bool co_clustered, uint64_t seed) {
    Prng prng(seed);
    std::vector<int32_t> fk(n);
    for (size_t i = 0; i < n; ++i) {
      fk[i] = static_cast<int32_t>(co_clustered ? i * dim_rows / n
                                                : prng.NextBounded(dim_rows));
    }
    std::vector<int32_t> filter(dim_rows);
    for (int32_t& x : filter) {
      x = static_cast<int32_t>(prng.NextBounded(1000));
    }
    auto dim = std::make_unique<Table>("dim_" + name);
    EXPECT_TRUE(dim->AddColumn("x", std::move(filter)).ok());
    EXPECT_TRUE(fact.AddColumn(name, std::move(fk)).ok());
    ops.push_back(OperatorSpec::FkProbe(
        {name, dim.get(), "x", CompareOp::kLt, s * 1000}));
    dims.push_back(std::move(dim));
  }

  std::unique_ptr<PipelineExecutor> Compile(Pmu* pmu) const {
    auto exec = PipelineExecutor::Compile(fact, ops, {}, pmu);
    EXPECT_TRUE(exec.ok());
    return std::move(exec).ValueOrDie();
  }

  /// Simulated msec of running `order` fixed, vector by vector.
  double FixedOrderMsec(const std::vector<size_t>& order,
                        size_t vector_size) const {
    Pmu pmu(HwConfig::ScaledXeon(8));
    auto exec = Compile(&pmu);
    EXPECT_TRUE(exec->Reorder(order).ok());
    return VectorDriver(exec.get(), vector_size).Run().simulated_msec;
  }

  ProgressiveReport RunProgressive(const std::vector<size_t>& start) const {
    Pmu pmu(HwConfig::ScaledXeon(8));
    auto exec = Compile(&pmu);
    EXPECT_TRUE(exec->Reorder(start).ok());
    return ProgressiveOptimizer(exec.get(), FastConfig()).Run();
  }
};

TEST(ProgressiveTest, CoClusteredProbeStaysAheadOfPredicate) {
  // Join j1's shape: a co-clustered FK probe of selectivity 0.3 (four fact
  // rows per key) and a 0.5 predicate. The probe is dearer per evaluation
  // but filters more and mispredicts less, so probe-first is the faster
  // fixed order, and a run started there must keep it.
  constexpr size_t n = 200'000;
  ProbeFixture fx;
  fx.AddPredicate("quantity", n, 0.5, 11);
  fx.AddProbe("orderkey", n, n / 4, 0.3, /*co_clustered=*/true, 12);
  const std::vector<size_t> probe_first = {1, 0};
  EXPECT_LT(fx.FixedOrderMsec(probe_first, 8'192),
            fx.FixedOrderMsec({0, 1}, 8'192));
  const ProgressiveReport report = fx.RunProgressive(probe_first);
  EXPECT_EQ(report.final_order, probe_first);
  for (const PeoChange& change : report.changes) {
    EXPECT_TRUE(change.reverted) << "vector " << change.vector_index;
  }
}

TEST(ProgressiveTest, ProbeMissesArePricedPerEvaluation) {
  // Two random probes into dimensions four times the simulated L3, so
  // every probe evaluation misses about equally often. The second probe
  // filters more (0.25 against 0.5), so it belongs first. Splitting the
  // sampled misses equally per probe would charge the second probe, with
  // half the evaluations, twice the misses per evaluation and keep it
  // last.
  constexpr size_t n = 200'000;
  constexpr size_t kDimRows = 1'000'000;  // 4 MB of int32 per dimension
  ProbeFixture fx;
  fx.AddProbe("fk_a", n, kDimRows, 0.5, /*co_clustered=*/false, 21);
  fx.AddProbe("fk_b", n, kDimRows, 0.25, /*co_clustered=*/false, 22);
  const std::vector<size_t> b_first = {1, 0};
  EXPECT_LT(fx.FixedOrderMsec(b_first, 8'192), fx.FixedOrderMsec({0, 1}, 8'192));
  const ProgressiveReport report = fx.RunProgressive({0, 1});
  EXPECT_EQ(report.final_order, b_first);
}

TEST(ProgressiveTest, GainBelowMarginDoesNotReorder) {
  // Selectivities 0.5 and 0.48: b-first is cheaper, but by less than the
  // sampling noise of an 8,192-tuple vector allows (2.8/sqrt(8192) = 3.1%),
  // so no sample justifies a switch.
  constexpr size_t n = 200'000;
  ProbeFixture fx;
  fx.AddPredicate("a", n, 0.5, 31);
  fx.AddPredicate("b", n, 0.48, 32);
  const ProgressiveReport report = fx.RunProgressive({0, 1});
  EXPECT_GE(report.num_optimizations, 10u);
  EXPECT_TRUE(report.changes.empty());
  EXPECT_EQ(report.final_order, (std::vector<size_t>{0, 1}));
}

TEST(ProgressiveTest, FailedSampleDoesNotHoistUnreachedOperator) {
  // Full Q6 over the generator's lineitem, which is weakly clustered on
  // shipdate: outside the one-year window whole vectors have no
  // qualifying tuple, and the estimator places their failures only to
  // within a few tuples. Priced as estimated, the operator behind the
  // failing bound, which no tuple reached, reads as passing nothing and
  // is hoisted, and this run ended at 0.67 simulated ms against the
  // fixed start order's 0.44.
  TpchConfig tpch;
  tpch.scale_factor = 0.02;
  auto lineitem = GenerateLineitem(tpch);
  ASSERT_TRUE(lineitem.ok());
  auto run = [&](bool progressive) {
    Pmu pmu(HwConfig::ScaledXeon(16));
    auto exec = PipelineExecutor::Compile(*lineitem.ValueOrDie(),
                                          MakeQ6FullPredicates(),
                                          Q6PayloadColumns(), &pmu);
    EXPECT_TRUE(exec.ok());
    ProgressiveConfig cfg;
    cfg.vector_size = 4'096;
    cfg.reopt_interval = 5;
    return progressive
               ? ProgressiveOptimizer(exec.ValueOrDie().get(), cfg)
                     .Run()
                     .drive.simulated_msec
               : VectorDriver(exec.ValueOrDie().get(), cfg.vector_size)
                     .Run()
                     .simulated_msec;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(ProgressiveTest, EveryKeptChangeClearsItsMargin) {
  // Each change records the predicted cycles per tuple of both orders and
  // the margin it cleared; one that validation kept must satisfy
  // new < old * (1 - margin).
  size_t kept = 0;
  for (const auto& sel : {std::vector<double>{0.9, 0.5, 0.1},
                          std::vector<double>{0.6, 0.3, 0.05},
                          std::vector<double>{0.95, 0.7, 0.4}}) {
    Fixture fx(200'000, sel[0], sel[1], sel[2]);
    const ProgressiveReport report =
        ProgressiveOptimizer(fx.exec.get(), FastConfig()).Run();
    for (const PeoChange& change : report.changes) {
      if (change.reverted) continue;
      ++kept;
      EXPECT_GT(change.margin, 0.0);
      EXPECT_GT(change.predicted_new_cycles, 0.0);
      EXPECT_LT(change.predicted_new_cycles,
                change.predicted_old_cycles * (1.0 - change.margin));
    }
  }
  EXPECT_GE(kept, 3u);
}

TEST(ProgressiveTest, FixedOrderDriveMatchesFixtureOutput) {
  Fixture fx(50'000, 0.5, 0.5, 0.5);
  const DriveResult r = VectorDriver(fx.exec.get(), 4'096).Run();
  EXPECT_EQ(r.input_tuples, 50'000u);
  EXPECT_EQ(r.qualifying_tuples, fx.expected_qualifying);
}

}  // namespace
}  // namespace nipo
