#include "exec/vector_driver.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

struct Fixture {
  Table table{"t"};
  Pmu pmu{HwConfig::ScaledXeon(8)};
  std::unique_ptr<PipelineExecutor> exec;

  explicit Fixture(size_t n) {
    Prng prng(1);
    std::vector<int32_t> a(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(prng.NextBounded(100));
    }
    EXPECT_TRUE(table.AddColumn("a", std::move(a)).ok());
    auto compiled = PipelineExecutor::Compile(
        table, {OperatorSpec::Predicate({"a", CompareOp::kLt, 50.0})}, {},
        &pmu);
    EXPECT_TRUE(compiled.ok());
    exec = std::move(compiled).ValueOrDie();
  }
};

TEST(VectorDriverTest, VectorCountRoundsUp) {
  Fixture fx(10'000);
  EXPECT_EQ(VectorDriver(fx.exec.get(), 1000).Run().num_vectors, 10u);
  // 3+3+3+1
  EXPECT_EQ(VectorDriver(fx.exec.get(), 3000).Run().num_vectors, 4u);
}

TEST(VectorDriverTest, RunWithoutHookAggregates) {
  Fixture fx(10'000);
  VectorDriver driver(fx.exec.get(), 1024);
  const DriveResult r = driver.Run();
  EXPECT_EQ(r.input_tuples, 10'000u);
  EXPECT_EQ(r.num_vectors, 10u);
  EXPECT_GT(r.qualifying_tuples, 0u);
  EXPECT_GT(r.simulated_msec, 0.0);
  EXPECT_GT(r.total.cycles, 0u);
}

TEST(VectorDriverTest, HookSeesEveryVectorInOrder) {
  Fixture fx(10'000);
  VectorDriver driver(fx.exec.get(), 1000);
  std::vector<size_t> indices;
  uint64_t hook_tuples = 0;
  driver.Run([&](const VectorSample& s) {
    indices.push_back(s.vector_index);
    hook_tuples += s.result.input_tuples;
    EXPECT_GT(s.counters.cycles, 0u);
    EXPECT_GT(s.counters.branches, 0u);
  });
  ASSERT_EQ(indices.size(), 10u);
  for (size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
  EXPECT_EQ(hook_tuples, 10'000u);
}

TEST(VectorDriverTest, PerVectorCountersSumToTotal) {
  Fixture fx(8'000);
  VectorDriver driver(fx.exec.get(), 1024);
  PmuCounters accumulated;
  const DriveResult r = driver.Run(
      [&](const VectorSample& s) { accumulated += s.counters; });
  // The total also contains the sampling charge itself; the counter sums
  // must match exactly for event counters.
  EXPECT_EQ(accumulated.branches, r.total.branches);
  EXPECT_EQ(accumulated.branches_not_taken, r.total.branches_not_taken);
  EXPECT_EQ(accumulated.l3_accesses, r.total.l3_accesses);
  // Cycles: the pre-vector read charge lands outside the per-vector
  // delta, the post-vector one inside -> the total exceeds the sum of
  // deltas by exactly one read charge per vector.
  const uint64_t sampling = static_cast<uint64_t>(
      kCounterReadCycles * static_cast<double>(r.num_vectors));
  EXPECT_NEAR(static_cast<double>(r.total.cycles),
              static_cast<double>(accumulated.cycles + sampling), 4.0);
}

TEST(VectorDriverTest, SamplingOverheadIsSmall) {
  Fixture fx_a(50'000);
  VectorDriver plain(fx_a.exec.get(), 4096);
  const DriveResult without = plain.Run();
  Fixture fx_b(50'000);
  VectorDriver sampled(fx_b.exec.get(), 4096);
  const DriveResult with = sampled.Run([](const VectorSample&) {});
  // Non-invasive monitoring: the whole point of the paper. Overhead of
  // reading counters every vector stays below 2%.
  EXPECT_LT(static_cast<double>(with.total.cycles) /
                static_cast<double>(without.total.cycles),
            1.02);
}

TEST(VectorDriverTest, LastShortVectorHandled) {
  Fixture fx(1000);
  VectorDriver driver(fx.exec.get(), 300);
  std::vector<uint64_t> sizes;
  driver.Run([&](const VectorSample& s) {
    sizes.push_back(s.result.input_tuples);
  });
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes.back(), 100u);
}

TEST(VectorDriverTest, HookMayReorderBetweenVectors) {
  // Reordering from inside the hook must not disturb the aggregate.
  Table t("t");
  Prng prng(2);
  std::vector<int32_t> a(5000), b(5000);
  uint64_t expected = 0;
  for (size_t i = 0; i < 5000; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    if (a[i] < 50 && b[i] < 50) ++expected;
  }
  ASSERT_TRUE(t.AddColumn("a", std::move(a)).ok());
  ASSERT_TRUE(t.AddColumn("b", std::move(b)).ok());
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(
      t,
      {OperatorSpec::Predicate({"a", CompareOp::kLt, 50.0}),
       OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0})},
      {}, &pmu);
  ASSERT_TRUE(exec.ok());
  VectorDriver driver(exec.ValueOrDie().get(), 512);
  size_t flips = 0;
  const DriveResult r = driver.Run([&](const VectorSample& s) {
    // Flip the order after every vector.
    auto order = exec.ValueOrDie()->current_order();
    std::swap(order[0], order[1]);
    ASSERT_TRUE(exec.ValueOrDie()->Reorder(order).ok());
    ++flips;
    (void)s;
  });
  EXPECT_EQ(r.qualifying_tuples, expected);
  EXPECT_EQ(flips, r.num_vectors);
}

}  // namespace
}  // namespace nipo
