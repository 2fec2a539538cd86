#include "optimizer/statistics.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

Column<int32_t> UniformColumn(size_t n, int32_t lo, int32_t hi,
                              uint64_t seed = 1) {
  Prng prng(seed);
  std::vector<int32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<int32_t>(prng.NextInRange(lo, hi));
  }
  return Column<int32_t>("c", std::move(values));
}

TEST(ColumnStatisticsTest, MinMaxCount) {
  Column<int32_t> col("c", {5, 1, 9, 3});
  auto stats = ColumnStatistics::Build(col);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().max(), 9.0);
  EXPECT_EQ(stats.ValueOrDie().row_count(), 4u);
  EXPECT_EQ(stats.ValueOrDie().num_buckets(), kHistogramBuckets);
}

TEST(ColumnStatisticsTest, RejectsEmpty) {
  Column<int32_t> empty("c", {});
  EXPECT_FALSE(ColumnStatistics::Build(empty).ok());
  EXPECT_FALSE(ColumnStatistics::BuildFromPrefix(empty, 10).ok());
  Column<int32_t> one("c", {1});
  EXPECT_FALSE(ColumnStatistics::BuildFromPrefix(one, 0).ok());
}

TEST(ColumnStatisticsTest, UniformSelectivityEstimates) {
  Column<int32_t> col = UniformColumn(100'000, 0, 999);
  auto r = ColumnStatistics::Build(col);
  ASSERT_TRUE(r.ok());
  const ColumnStatistics& stats = r.ValueOrDie();
  EXPECT_NEAR(stats.EstimateSelectivity(CompareOp::kLt, 500.0), 0.5, 0.02);
  EXPECT_NEAR(stats.EstimateSelectivity(CompareOp::kLt, 100.0), 0.1, 0.02);
  EXPECT_NEAR(stats.EstimateSelectivity(CompareOp::kGe, 900.0), 0.1, 0.02);
  EXPECT_NEAR(stats.EstimateSelectivity(CompareOp::kLe, 999.0), 1.0, 0.01);
  EXPECT_NEAR(stats.EstimateSelectivity(CompareOp::kLt, -5.0), 0.0, 1e-12);
  EXPECT_NEAR(stats.EstimateSelectivity(CompareOp::kGt, 2000.0), 0.0,
              1e-12);
}

TEST(ColumnStatisticsTest, SkewedDistributionCaptured) {
  // 90% of values in [0, 100), 10% in [900, 1000).
  Prng prng(5);
  std::vector<int32_t> values(50'000);
  for (auto& v : values) {
    v = prng.NextBool(0.9)
            ? static_cast<int32_t>(prng.NextBounded(100))
            : static_cast<int32_t>(900 + prng.NextBounded(100));
  }
  Column<int32_t> col("c", std::move(values));
  auto stats = ColumnStatistics::Build(col);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats.ValueOrDie().EstimateSelectivity(CompareOp::kLt, 500.0),
              0.9, 0.02);
  EXPECT_NEAR(stats.ValueOrDie().EstimateSelectivity(CompareOp::kGe, 900.0),
              0.1, 0.02);
}

TEST(ColumnStatisticsTest, EqualityGetsSliverNotZero) {
  Column<int32_t> col = UniformColumn(100'000, 0, 999);
  auto stats = ColumnStatistics::Build(col);
  ASSERT_TRUE(stats.ok());
  const double eq = stats.ValueOrDie().EstimateSelectivity(CompareOp::kEq,
                                                           500.0);
  EXPECT_GT(eq, 0.0);
  EXPECT_LT(eq, 0.05);
  EXPECT_NEAR(stats.ValueOrDie().EstimateSelectivity(CompareOp::kNe, 500.0),
              1.0 - eq, 1e-9);
}

TEST(ColumnStatisticsTest, ConstantColumn) {
  Column<int32_t> col("c", std::vector<int32_t>(100, 7));
  auto stats = ColumnStatistics::Build(col);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().EstimateSelectivity(CompareOp::kLt,
                                                          7.0),
                   0.0);
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().EstimateSelectivity(CompareOp::kLe,
                                                          7.0),
                   1.0);
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().EstimateSelectivity(CompareOp::kGt,
                                                          7.0),
                   0.0);
}

TEST(ColumnStatisticsTest, PrefixSamplingMissesLaterDistribution) {
  // First half uniform [0,100), second half uniform [900,1000): a prefix
  // sample sees only the first regime -- the stale-statistics failure
  // mode progressive optimization exists for.
  std::vector<int32_t> values(20'000);
  Prng prng(9);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i < values.size() / 2
                    ? static_cast<int32_t>(prng.NextBounded(100))
                    : static_cast<int32_t>(900 + prng.NextBounded(100));
  }
  Column<int32_t> col("c", std::move(values));
  auto sampled = ColumnStatistics::BuildFromPrefix(col, 5'000);
  ASSERT_TRUE(sampled.ok());
  // The sample believes everything is < 500...
  EXPECT_GT(sampled.ValueOrDie().EstimateSelectivity(CompareOp::kLt, 500.0),
            0.99);
  // ...while the truth is 50%.
  auto exact = ColumnStatistics::Build(col);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact.ValueOrDie().EstimateSelectivity(CompareOp::kLt, 500.0),
              0.5, 0.02);
}

TEST(TableStatisticsTest, BuildsAllColumnsAndEstimates) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("a", UniformColumn(10'000, 0, 99).mutable_values())
                  .ok());
  ASSERT_TRUE(
      t.AddColumn("b", UniformColumn(10'000, 0, 999, 2).mutable_values())
          .ok());
  auto stats = TableStatistics::Build(t);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().row_count(), 10'000u);
  EXPECT_TRUE(stats.ValueOrDie().ForColumn("a").ok());
  EXPECT_FALSE(stats.ValueOrDie().ForColumn("zzz").ok());

  OperatorSpec pred =
      OperatorSpec::Predicate({"a", CompareOp::kLt, 50.0});
  EXPECT_NEAR(stats.ValueOrDie().EstimateOperatorSelectivity(pred), 0.5,
              0.03);
  // Probes and unknown columns fall back.
  OperatorSpec probe = OperatorSpec::FkProbe({});
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().EstimateOperatorSelectivity(probe),
                   kUnknownSelectivity);
  OperatorSpec unknown =
      OperatorSpec::Predicate({"zzz", CompareOp::kLt, 1.0});
  EXPECT_DOUBLE_EQ(stats.ValueOrDie().EstimateOperatorSelectivity(unknown),
                   kUnknownSelectivity);
}

TEST(SampleMergerTest, SumsResultsAndCounters) {
  SampleMerger merger;
  EXPECT_EQ(merger.count(), 0u);

  VectorSample first;
  first.vector_index = 4;
  first.result.input_tuples = 100;
  first.result.qualifying_tuples = 10;
  first.result.aggregate = 1.5;
  first.counters.branches_not_taken = 50;
  first.counters.taken_mispredictions = 3;
  first.counters.l3_accesses = 7;
  first.counters.cycles = 1'000;
  VectorSample second;
  second.vector_index = 2;  // out-of-order completion (stolen morsel)
  second.result.input_tuples = 60;
  second.result.qualifying_tuples = 5;
  second.result.aggregate = 0.25;
  second.counters.branches_not_taken = 30;
  second.counters.not_taken_mispredictions = 2;
  second.counters.cycles = 700;

  merger.Add(first);
  merger.Add(second);
  EXPECT_EQ(merger.count(), 2u);
  const VectorSample& merged = merger.merged();
  EXPECT_EQ(merged.vector_index, 4u);  // the window's end position
  EXPECT_EQ(merged.result.input_tuples, 160u);
  EXPECT_EQ(merged.result.qualifying_tuples, 15u);
  EXPECT_DOUBLE_EQ(merged.result.aggregate, 1.75);
  EXPECT_EQ(merged.counters.branches_not_taken, 80u);
  EXPECT_EQ(merged.counters.taken_mispredictions, 3u);
  EXPECT_EQ(merged.counters.not_taken_mispredictions, 2u);
  EXPECT_EQ(merged.counters.l3_accesses, 7u);
  EXPECT_EQ(merged.counters.cycles, 1'700u);

  merger.Reset();
  EXPECT_EQ(merger.count(), 0u);
  EXPECT_EQ(merger.merged().result.input_tuples, 0u);
}

}  // namespace
}  // namespace nipo
