/// \file simd_cost_test.cc
/// SIMD-aware predicate pricing (DESIGN.md Section 8): the priced
/// branching/branch-free crossover selectivity must match both a
/// brute-force sweep of the pricing model and — the load-bearing check —
/// a brute-force sweep of the *simulated machine* (executing one
/// predicate in each form and comparing booked cycles). Also pins the
/// order-flip behaviour: CostPricing::kSimdAware changes the progressive
/// optimizer's chosen predicate order versus kBranchCycles on a workload
/// built to straddle the two models' rankings, on the solo driver and on
/// the sharded driver, whose workers receive the (order, forms) plans
/// the coordinator broadcasts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "cost/branch_model.h"
#include "optimizer/progressive.h"

namespace nipo {
namespace {

constexpr double kCmp = LoopCostModel::kCompareInstructions;
constexpr double kBf = LoopCostModel::kBranchFreeInstructions;

TEST(FormCrossoverTest, MatchesBruteForceSweepOfPricingModel) {
  const HwConfig hw;
  const double priced =
      ComputeFormCrossover(hw.cycle_model, hw.predictor, kCmp, kBf, 0.0);
  ASSERT_GT(priced, 0.0);
  ASSERT_LT(priced, 0.5);

  // Fine sweep of the model itself: the first grid point where the
  // branch-free form wins must bracket the bisected crossover.
  const double step = 1e-4;
  double first_branch_free = 1.0;
  for (double s = 0.0; s <= 0.5; s += step) {
    const PredicateFormCosts costs = PricePredicateForms(
        hw.cycle_model, hw.predictor, s, kCmp, kBf, 0.0);
    if (costs.branch_free_cheaper()) {
      first_branch_free = s;
      break;
    }
  }
  EXPECT_NEAR(priced, first_branch_free, step);

  // On either side of the crossover the cheaper form is the expected one.
  const PredicateFormCosts below = PricePredicateForms(
      hw.cycle_model, hw.predictor, priced - 0.01, kCmp, kBf, 0.0);
  EXPECT_FALSE(below.branch_free_cheaper());
  EXPECT_EQ(below.cheapest(), below.branching);
  const PredicateFormCosts above = PricePredicateForms(
      hw.cycle_model, hw.predictor, priced + 0.01, kCmp, kBf, 0.0);
  EXPECT_TRUE(above.branch_free_cheaper());
  EXPECT_EQ(above.cheapest(), above.branch_free);
}

TEST(FormCrossoverTest, ExtraInstructionsShiftBothFormsEqually) {
  // Extra per-tuple work (UDFs, wide compares) is paid by both forms, so
  // the crossover does not move with it.
  const HwConfig hw;
  const double plain =
      ComputeFormCrossover(hw.cycle_model, hw.predictor, kCmp, kBf, 0.0);
  const double heavy =
      ComputeFormCrossover(hw.cycle_model, hw.predictor, kCmp, kBf, 10.0);
  EXPECT_DOUBLE_EQ(plain, heavy);
}

TEST(FormCrossoverTest, DegenerateKernelCostsHitTheBounds) {
  const HwConfig hw;
  // A branch-free kernel no more expensive than the compare is cheaper
  // at every selectivity (it still saves the branch cycle).
  EXPECT_EQ(ComputeFormCrossover(hw.cycle_model, hw.predictor, 1.0, 1.0,
                                 0.0),
            0.0);
  // A wildly expensive kernel never wins on [0, 0.5].
  EXPECT_EQ(ComputeFormCrossover(hw.cycle_model, hw.predictor, 1.0, 100.0,
                                 0.0),
            1.0);
}

TEST(FormCrossoverTest, MatchesBruteForceSweepOfSimulatedMachine) {
  // Execute one predicate per selectivity in both forms on the default
  // simulated machine and find where the booked cycle totals cross. The
  // pricing model uses the Markov steady-state misprediction rate; the
  // machine runs the real finite predictor over one concrete i.i.d.
  // sequence, so the empirical crossover may land one grid step away.
  const HwConfig hw;
  const double priced =
      ComputeFormCrossover(hw.cycle_model, hw.predictor, kCmp, kBf, 0.0);

  const size_t n = 120'000;
  auto cycles_at = [&](double selectivity, PredicateForm form) {
    Prng prng(31);  // same column data for both forms
    std::vector<int32_t> col(n);
    for (size_t i = 0; i < n; ++i) {
      col[i] = static_cast<int32_t>(prng.NextBounded(100'000));
    }
    Table t("t");
    NIPO_CHECK(t.AddColumn("v", std::move(col)).ok());
    Pmu pmu(hw);
    auto exec = PipelineExecutor::Compile(
        t,
        {OperatorSpec::Predicate(
            {"v", CompareOp::kLt, selectivity * 100'000})},
        {}, &pmu);
    NIPO_CHECK(exec.ok());
    NIPO_CHECK(exec.ValueOrDie()->SetForms({form}).ok());
    return VectorDriver(exec.ValueOrDie().get(), 8'192).Run().total.cycles;
  };

  const double grid_step = 0.01;
  double empirical = 1.0;
  for (double s = 0.02; s <= 0.14; s += grid_step) {
    if (cycles_at(s, PredicateForm::kBranchFree) <
        cycles_at(s, PredicateForm::kBranching)) {
      empirical = s;
      break;
    }
  }
  ASSERT_LT(empirical, 1.0) << "branch-free never won on the sweep";
  // Within one grid step of the priced crossover.
  EXPECT_NEAR(empirical, priced, grid_step + 1e-9);
}

/// Two-predicate workload built to straddle the rankings: A has worse
/// selectivity (0.5) but is plain; B is more selective (0.3) but pays 10
/// extra per-tuple instructions. Priced on the default machine,
/// kBranchCycles ranks B first (branching costs: A 8.5, B ~10.9 cycles
/// per tuple), while kSimdAware switches both to their cheaper form
/// (A branch-free 2.0, B branch-free 7.0) and ranks A first.
struct FlipFixture {
  Engine engine{HwConfig()};
  QuerySpec query;
  uint64_t expected_qualifying = 0;

  explicit FlipFixture(uint64_t seed = 9) {
    const size_t n = 150'000;
    Prng prng(seed);
    std::vector<int32_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(prng.NextBounded(1000));
      b[i] = static_cast<int32_t>(prng.NextBounded(1000));
      if (a[i] < 500 && b[i] < 300) ++expected_qualifying;
    }
    auto table = std::make_unique<Table>("t");
    EXPECT_TRUE(table->AddColumn("a", std::move(a)).ok());
    EXPECT_TRUE(table->AddColumn("b", std::move(b)).ok());
    EXPECT_TRUE(engine.RegisterTable(std::move(table)).ok());
    PredicateSpec pb{"b", CompareOp::kLt, 300.0};
    pb.extra_instructions = 10.0;
    query.table = "t";
    query.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 500.0}),
                 OperatorSpec::Predicate(pb)};
  }
};

/// A driver the flip must hold on.
struct FlipDriver {
  ExecDriver driver;
  size_t num_threads;
};

/// Solo, sharded on one worker, sharded on four.
constexpr FlipDriver kFlipDrivers[] = {{ExecDriver::kSolo, 1},
                                       {ExecDriver::kSharded, 1},
                                       {ExecDriver::kSharded, 4}};

/// What a flip run decided: the order it ended in and its PEO trace.
struct FlipRun {
  std::vector<size_t> final_order;
  std::vector<PeoChange> changes;
};

FlipRun RunWithPricing(CostPricing pricing, FlipDriver driver) {
  FlipFixture fx;
  ExecOptions options;
  options.mode = ExecMode::kProgressive;
  options.driver = driver.driver;
  options.num_threads = driver.num_threads;
  options.progressive.vector_size = 8'192;
  options.progressive.reopt_interval = 2;
  options.progressive.pricing = pricing;
  auto result = fx.engine.Execute(fx.query, options);
  EXPECT_TRUE(result.ok());
  const ExecReport& report = result.ValueOrDie();
  EXPECT_EQ(report.qualifying_tuples, fx.expected_qualifying);
  return {report.final_order, report.progressive.has_value()
                                  ? report.progressive->changes
                                  : report.sharded_progressive->changes};
}

std::string DriverName(FlipDriver driver) {
  if (driver.driver == ExecDriver::kSolo) return "solo";
  return "sharded x" + std::to_string(driver.num_threads);
}

TEST(SimdAwarePricingTest, ChangesChosenPredicateOrder) {
  // Branch-cost-only pricing prefers the more selective B first; the
  // SIMD-aware model knows A's 0.5-selectivity branch is exactly the one
  // a branch-free kernel makes cheap, and keeps A first. The optimizer's
  // chosen order flips between the two pricings on identical data — the
  // EXPERIMENTS.md "SIMD kernels" demonstration — on every driver.
  for (const FlipDriver driver : kFlipDrivers) {
    EXPECT_EQ(RunWithPricing(CostPricing::kBranchCycles, driver).final_order,
              (std::vector<size_t>{1, 0}))
        << DriverName(driver);
    EXPECT_EQ(RunWithPricing(CostPricing::kSimdAware, driver).final_order,
              (std::vector<size_t>{0, 1}))
        << DriverName(driver);
  }
}

TEST(SimdAwarePricingTest, SimdAwareRunSwitchesFormsAndPreservesResults) {
  // Both predicates price cheaper branch-free (0.5 and 0.3 are above the
  // ~0.066 crossover); at least one applied change must carry a
  // branch-free form, on every driver.
  for (const FlipDriver driver : kFlipDrivers) {
    const FlipRun run = RunWithPricing(CostPricing::kSimdAware, driver);
    bool saw_branch_free = false;
    for (const PeoChange& change : run.changes) {
      ASSERT_EQ(change.old_forms.size(), 2u) << DriverName(driver);
      ASSERT_EQ(change.new_forms.size(), 2u) << DriverName(driver);
      if (change.reverted) continue;
      for (const PredicateForm form : change.new_forms) {
        if (form == PredicateForm::kBranchFree) saw_branch_free = true;
      }
    }
    EXPECT_TRUE(saw_branch_free) << DriverName(driver);
  }
}

TEST(SimdAwarePricingTest, BranchCyclesRunKeepsAllBranchingForms) {
  for (const FlipDriver driver : kFlipDrivers) {
    const FlipRun run = RunWithPricing(CostPricing::kBranchCycles, driver);
    for (const PeoChange& change : run.changes) {
      for (const PredicateForm form : change.new_forms) {
        EXPECT_EQ(form, PredicateForm::kBranching) << DriverName(driver);
      }
    }
  }
}

}  // namespace
}  // namespace nipo
