#include "optimizer/progressive.h"

#include <gtest/gtest.h>

#include "common/prng.h"

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

TEST(ProgressiveTest, ConvergesToAscendingSelectivityOrder) {
  // Initial order a(0.9), b(0.5), c(0.1): worst-first. The optimizer must
  // end on c, b, a = original indices {2, 1, 0}.
  Fixture fx(200'000, 0.9, 0.5, 0.1);
  ProgressiveOptimizer opt(fx.exec.get(), FastConfig());
  const ProgressiveReport report = opt.Run();
  EXPECT_EQ(report.final_order, (std::vector<size_t>{2, 1, 0}));
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
  // The estimate is in final evaluation order {2,1,0} -> (0.2, 0.4, 0.8).
  ASSERT_EQ(report.final_order, (std::vector<size_t>{2, 1, 0}));
  EXPECT_NEAR(report.last_estimate[0], 0.2, 0.1);
  EXPECT_NEAR(report.last_estimate[1], 0.4, 0.12);
  EXPECT_NEAR(report.last_estimate[2], 0.8, 0.12);
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

TEST(ProgressiveTest, ValidationRevertsHarmfulExploration) {
  // Force exploration every optimization on an already optimal order: the
  // explored (worse) order must be reverted by validation.
  Fixture fx(150'000, 0.05, 0.95, 0.95);
  ProgressiveConfig cfg = FastConfig();
  cfg.explore_period = 1;
  ProgressiveOptimizer opt(fx.exec.get(), cfg);
  const ProgressiveReport report = opt.Run();
  size_t explored = 0, reverted = 0;
  for (const PeoChange& change : report.changes) {
    if (change.exploration) {
      ++explored;
      if (change.reverted) ++reverted;
    }
  }
  EXPECT_GT(explored, 0u);
  EXPECT_GT(reverted, 0u);
  // And the run must still finish on the optimal order.
  EXPECT_EQ(report.final_order[0], 0u);
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

TEST(ProgressiveTest, FixedOrderDriveMatchesFixtureOutput) {
  Fixture fx(50'000, 0.5, 0.5, 0.5);
  const DriveResult r = VectorDriver(fx.exec.get(), 4'096).Run();
  EXPECT_EQ(r.input_tuples, 50'000u);
  EXPECT_EQ(r.qualifying_tuples, fx.expected_qualifying);
}

}  // namespace
}  // namespace nipo
