#include "exec/pipeline.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

/// Builds a table where predicate outcomes are fully controlled:
/// a < kA passes with ~pa, b < kB with ~pb.
struct Fixture {
  Table table{"t"};
  uint64_t expected_qualifying = 0;
  double expected_sum = 0;

  Fixture(size_t n, double pa, double pb, uint64_t seed = 1) {
    Prng prng(seed);
    std::vector<int32_t> a(n), b(n);
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(prng.NextBounded(1000));
      b[i] = static_cast<int32_t>(prng.NextBounded(1000));
      v[i] = static_cast<int64_t>(prng.NextBounded(100));
      if (a[i] < pa * 1000 && b[i] < pb * 1000) {
        ++expected_qualifying;
        expected_sum += static_cast<double>(v[i]);
      }
    }
    EXPECT_TRUE(table.AddColumn("a", std::move(a)).ok());
    EXPECT_TRUE(table.AddColumn("b", std::move(b)).ok());
    EXPECT_TRUE(table.AddColumn("v", std::move(v)).ok());
  }

  std::vector<OperatorSpec> Ops(double pa, double pb) const {
    return {OperatorSpec::Predicate({"a", CompareOp::kLt, pa * 1000}),
            OperatorSpec::Predicate({"b", CompareOp::kLt, pb * 1000})};
  }
};

TEST(PipelineTest, ComputesCorrectResult) {
  Fixture fx(20'000, 0.3, 0.6);
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(fx.table, fx.Ops(0.3, 0.6), {"v"},
                                        &pmu);
  ASSERT_TRUE(exec.ok());
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  EXPECT_EQ(r.input_tuples, 20'000u);
  EXPECT_EQ(r.qualifying_tuples, fx.expected_qualifying);
  EXPECT_DOUBLE_EQ(r.aggregate, fx.expected_sum);
}

TEST(PipelineTest, ResultInvariantUnderReorder) {
  Fixture fx(20'000, 0.3, 0.6);
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(fx.table, fx.Ops(0.3, 0.6), {"v"},
                                        &pmu);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec.ValueOrDie()->Reorder({1, 0}).ok());
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  EXPECT_EQ(r.qualifying_tuples, fx.expected_qualifying);
  EXPECT_DOUBLE_EQ(r.aggregate, fx.expected_sum);
}

TEST(PipelineTest, BranchesTakenIdentity) {
  // Paper Section 2.2.1: qualifying = 2n - branches_taken.
  Fixture fx(30'000, 0.5, 0.5);
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(fx.table, fx.Ops(0.5, 0.5), {}, &pmu);
  ASSERT_TRUE(exec.ok());
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(2 * r.input_tuples - c.branches_taken, r.qualifying_tuples);
}

TEST(PipelineTest, BranchesNotTakenEqualsColumnAccessSum) {
  // BNT = (tuples passing pred 1) + (tuples passing both).
  Fixture fx(30'000, 0.4, 0.7);
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(fx.table, fx.Ops(0.4, 0.7), {}, &pmu);
  ASSERT_TRUE(exec.ok());

  // Count pass-1 tuples independently.
  const auto& a = *fx.table.GetTypedColumn<int32_t>("a").ValueOrDie();
  uint64_t pass1 = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 400) ++pass1;
  }
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.branches_not_taken, pass1 + r.qualifying_tuples);
}

TEST(PipelineTest, EarlyExitSkipsLaterColumns) {
  // With a first predicate of selectivity 0, the second column is never
  // loaded: L1 accesses cover only column a.
  Fixture fx(10'000, 0.0, 1.0);
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(
      fx.table,
      {OperatorSpec::Predicate({"a", CompareOp::kLt, -1.0}),
       OperatorSpec::Predicate({"b", CompareOp::kLt, 2000.0})},
      {}, &pmu);
  ASSERT_TRUE(exec.ok());
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  EXPECT_EQ(r.qualifying_tuples, 0u);
  EXPECT_EQ(pmu.Read().l1_accesses, 10'000u);  // one load per tuple
}

TEST(PipelineTest, ExecuteRangeSplitsMatchFullRun) {
  Fixture fx(10'000, 0.5, 0.5);
  Pmu pmu1(HwConfig::ScaledXeon(8)), pmu2(HwConfig::ScaledXeon(8));
  auto full = PipelineExecutor::Compile(fx.table, fx.Ops(0.5, 0.5), {"v"},
                                        &pmu1);
  auto split = PipelineExecutor::Compile(fx.table, fx.Ops(0.5, 0.5), {"v"},
                                         &pmu2);
  ASSERT_TRUE(full.ok() && split.ok());
  const VectorResult whole = full.ValueOrDie()->ExecuteAll();
  VectorResult sum;
  for (size_t begin = 0; begin < 10'000; begin += 1024) {
    const VectorResult part = split.ValueOrDie()->ExecuteRange(
        begin, std::min<size_t>(begin + 1024, 10'000));
    sum.input_tuples += part.input_tuples;
    sum.qualifying_tuples += part.qualifying_tuples;
    sum.aggregate += part.aggregate;
  }
  EXPECT_EQ(whole.qualifying_tuples, sum.qualifying_tuples);
  EXPECT_DOUBLE_EQ(whole.aggregate, sum.aggregate);
}

TEST(PipelineTest, ReorderValidation) {
  Fixture fx(100, 0.5, 0.5);
  Pmu pmu;
  auto exec = PipelineExecutor::Compile(fx.table, fx.Ops(0.5, 0.5), {}, &pmu);
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec.ValueOrDie()->Reorder({0}).ok());        // wrong size
  EXPECT_FALSE(exec.ValueOrDie()->Reorder({0, 0}).ok());     // duplicate
  EXPECT_FALSE(exec.ValueOrDie()->Reorder({0, 7}).ok());     // out of range
  EXPECT_TRUE(exec.ValueOrDie()->Reorder({1, 0}).ok());
  EXPECT_EQ(exec.ValueOrDie()->current_order(),
            (std::vector<size_t>{1, 0}));
  EXPECT_EQ(exec.ValueOrDie()->OperatorAt(0).predicate.column, "b");
}

TEST(PipelineTest, CompileErrors) {
  Fixture fx(100, 0.5, 0.5);
  Pmu pmu;
  // Unknown predicate column.
  EXPECT_FALSE(PipelineExecutor::Compile(
                   fx.table,
                   {OperatorSpec::Predicate({"zzz", CompareOp::kLt, 1.0})},
                   {}, &pmu)
                   .ok());
  // Unknown payload column.
  EXPECT_FALSE(PipelineExecutor::Compile(fx.table, fx.Ops(0.5, 0.5),
                                         {"zzz"}, &pmu)
                   .ok());
  // Null PMU.
  EXPECT_FALSE(
      PipelineExecutor::Compile(fx.table, fx.Ops(0.5, 0.5), {}, nullptr)
          .ok());
  // Empty pipeline.
  EXPECT_FALSE(PipelineExecutor::Compile(fx.table, {}, {}, &pmu).ok());
}

TEST(PipelineTest, EnumeratorCountsPerPosition) {
  Fixture fx(5'000, 0.4, 0.7);
  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(fx.table, fx.Ops(0.4, 0.7), {}, &pmu,
                                        InstrumentationMode::kEnumerator);
  ASSERT_TRUE(exec.ok());
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  const auto& counts = exec.ValueOrDie()->enumerator_pass_counts();
  ASSERT_EQ(counts.size(), 2u);
  // Position 1 pass count equals the final qualifying count.
  EXPECT_EQ(counts[1], r.qualifying_tuples);
  EXPECT_GE(counts[0], counts[1]);
}

TEST(PipelineTest, EnumeratorModeCostsMoreCycles) {
  Fixture fx(20'000, 0.9, 0.9);
  Pmu pmu_a(HwConfig::ScaledXeon(8)), pmu_b(HwConfig::ScaledXeon(8));
  auto plain = PipelineExecutor::Compile(fx.table, fx.Ops(0.9, 0.9), {},
                                         &pmu_a, InstrumentationMode::kPmu);
  auto enumer = PipelineExecutor::Compile(
      fx.table, fx.Ops(0.9, 0.9), {}, &pmu_b,
      InstrumentationMode::kEnumerator);
  ASSERT_TRUE(plain.ok() && enumer.ok());
  plain.ValueOrDie()->ExecuteAll();
  enumer.ValueOrDie()->ExecuteAll();
  EXPECT_GT(pmu_b.Read().cycles, pmu_a.Read().cycles);
}

TEST(PipelineTest, EnumeratorModeBooksOnlyItsCounterUpdates) {
  // One predicate and one FK probe, in both orders: the enumerator build
  // differs from the PMU build only by kEnumeratorInstructions per row
  // evaluated at each position (and the cycles they cost), and its pass
  // counts are the rows that passed each position.
  const size_t kFact = 20'000, kDim = 100;
  Prng prng(4);
  std::vector<int32_t> a(kFact), fk(kFact);
  uint64_t a_pass = 0, fk_pass = 0, both_pass = 0;
  for (size_t i = 0; i < kFact; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(1000));
    fk[i] = static_cast<int32_t>(prng.NextBounded(kDim));
    a_pass += a[i] < 400;
    fk_pass += fk[i] % 2 == 0;
    both_pass += a[i] < 400 && fk[i] % 2 == 0;
  }
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn("a", std::move(a)).ok());
  ASSERT_TRUE(fact.AddColumn("fk", std::move(fk)).ok());
  std::vector<int32_t> parity(kDim);
  for (size_t i = 0; i < kDim; ++i) parity[i] = static_cast<int32_t>(i % 2);
  Table dim("dim");
  ASSERT_TRUE(dim.AddColumn("parity", std::move(parity)).ok());
  const std::vector<OperatorSpec> ops = {
      OperatorSpec::Predicate({"a", CompareOp::kLt, 400.0}),
      OperatorSpec::FkProbe({"fk", &dim, "parity", CompareOp::kEq, 0.0})};

  for (const std::vector<size_t>& order :
       {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    SCOPED_TRACE(order[0]);
    Pmu pmu_pmu(HwConfig::ScaledXeon(8)), pmu_enum(HwConfig::ScaledXeon(8));
    auto plain = PipelineExecutor::Compile(fact, ops, {}, &pmu_pmu,
                                           InstrumentationMode::kPmu);
    auto enumer = PipelineExecutor::Compile(fact, ops, {}, &pmu_enum,
                                            InstrumentationMode::kEnumerator);
    ASSERT_TRUE(plain.ok() && enumer.ok());
    ASSERT_TRUE(plain.ValueOrDie()->Reorder(order).ok());
    ASSERT_TRUE(enumer.ValueOrDie()->Reorder(order).ok());
    const VectorResult r_pmu = plain.ValueOrDie()->ExecuteAll();
    const VectorResult r_enum = enumer.ValueOrDie()->ExecuteAll();
    EXPECT_EQ(r_pmu.qualifying_tuples, both_pass);
    EXPECT_EQ(r_enum.qualifying_tuples, both_pass);

    const uint64_t first_pass = order[0] == 0 ? a_pass : fk_pass;
    EXPECT_EQ(enumer.ValueOrDie()->enumerator_pass_counts(),
              (std::vector<uint64_t>{first_pass, both_pass}));
    // Rows evaluated: every row at position 0, the survivors at 1.
    const uint64_t evaluated = kFact + first_pass;
    PmuCounters c_pmu = pmu_pmu.Read();
    PmuCounters c_enum = pmu_enum.Read();
    EXPECT_EQ(c_enum.instructions - c_pmu.instructions,
              static_cast<uint64_t>(LoopCostModel::kEnumeratorInstructions) *
                  evaluated);
    EXPECT_GT(c_enum.cycles, c_pmu.cycles);
    c_enum.instructions = c_pmu.instructions;
    c_enum.cycles = c_pmu.cycles;
    EXPECT_EQ(c_enum, c_pmu) << c_enum.ToString() << "\n" << c_pmu.ToString();
  }
}

TEST(PipelineTest, ExpensivePredicateChargesExtraInstructions) {
  Fixture fx(10'000, 0.5, 0.5);
  Pmu pmu_a(HwConfig::ScaledXeon(8)), pmu_b(HwConfig::ScaledXeon(8));
  auto cheap_ops = fx.Ops(0.5, 0.5);
  auto costly_ops = cheap_ops;
  costly_ops[0].predicate.extra_instructions = 50;
  auto cheap = PipelineExecutor::Compile(fx.table, cheap_ops, {}, &pmu_a);
  auto costly = PipelineExecutor::Compile(fx.table, costly_ops, {}, &pmu_b);
  ASSERT_TRUE(cheap.ok() && costly.ok());
  cheap.ValueOrDie()->ExecuteAll();
  costly.ValueOrDie()->ExecuteAll();
  EXPECT_GT(pmu_b.Read().instructions,
            pmu_a.Read().instructions + 10'000u * 49);
}

TEST(PipelineTest, FkProbeFiltersThroughDimension) {
  // Fact rows point at dimension rows; dimension filter keeps even ids.
  const size_t kFact = 8'000, kDim = 100;
  Prng prng(3);
  std::vector<int32_t> fk(kFact);
  uint64_t expected = 0;
  for (size_t i = 0; i < kFact; ++i) {
    fk[i] = static_cast<int32_t>(prng.NextBounded(kDim));
    if (fk[i] % 2 == 0) ++expected;
  }
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn("fk", std::move(fk)).ok());
  std::vector<int32_t> parity(kDim);
  for (size_t i = 0; i < kDim; ++i) parity[i] = static_cast<int32_t>(i % 2);
  Table dim("dim");
  ASSERT_TRUE(dim.AddColumn("parity", std::move(parity)).ok());

  Pmu pmu(HwConfig::ScaledXeon(8));
  auto exec = PipelineExecutor::Compile(
      fact,
      {OperatorSpec::FkProbe({"fk", &dim, "parity", CompareOp::kEq, 0.0})},
      {}, &pmu);
  ASSERT_TRUE(exec.ok());
  const VectorResult r = exec.ValueOrDie()->ExecuteAll();
  EXPECT_EQ(r.qualifying_tuples, expected);
}

TEST(PipelineTest, FkProbeRequiresInt32Key) {
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn<int64_t>("fk", {0, 1}).ok());
  Table dim("dim");
  ASSERT_TRUE(dim.AddColumn<int32_t>("x", {0, 1}).ok());
  Pmu pmu;
  auto exec = PipelineExecutor::Compile(
      fact, {OperatorSpec::FkProbe({"fk", &dim, "x", CompareOp::kLe, 1.0})},
      {}, &pmu);
  EXPECT_EQ(exec.status().code(), StatusCode::kTypeMismatch);
}

TEST(PipelineTest, FkProbeRequiresDimension) {
  Table fact("fact");
  ASSERT_TRUE(fact.AddColumn<int32_t>("fk", {0}).ok());
  Pmu pmu;
  auto exec = PipelineExecutor::Compile(
      fact,
      {OperatorSpec::FkProbe({"fk", nullptr, "x", CompareOp::kLe, 1.0})},
      {}, &pmu);
  EXPECT_FALSE(exec.ok());
}

TEST(PipelineTest, OperatorToString) {
  OperatorSpec p = OperatorSpec::Predicate({"a", CompareOp::kLt, 5.0});
  EXPECT_NE(p.ToString().find("a<"), std::string::npos);
  Table dim("orders");
  OperatorSpec probe = OperatorSpec::FkProbe(
      {"fk", &dim, "col", CompareOp::kGe, 1.0});
  EXPECT_NE(probe.ToString().find("probe(orders.col>="), std::string::npos);
}

TEST(PipelineTest, AllCompareOpsEvaluateCorrectly) {
  EXPECT_TRUE(EvaluateCompare(1.0, CompareOp::kLt, 2.0));
  EXPECT_FALSE(EvaluateCompare(2.0, CompareOp::kLt, 2.0));
  EXPECT_TRUE(EvaluateCompare(2.0, CompareOp::kLe, 2.0));
  EXPECT_TRUE(EvaluateCompare(3.0, CompareOp::kGt, 2.0));
  EXPECT_TRUE(EvaluateCompare(2.0, CompareOp::kGe, 2.0));
  EXPECT_TRUE(EvaluateCompare(2.0, CompareOp::kEq, 2.0));
  EXPECT_TRUE(EvaluateCompare(1.0, CompareOp::kNe, 2.0));
  EXPECT_FALSE(EvaluateCompare(2.0, CompareOp::kNe, 2.0));
}

TEST(PipelineTest, DoubleColumnPredicates) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn<double>("x", {0.5, 1.5, 2.5, 3.5}).ok());
  Pmu pmu;
  auto exec = PipelineExecutor::Compile(
      t, {OperatorSpec::Predicate({"x", CompareOp::kGt, 1.0})}, {}, &pmu);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec.ValueOrDie()->ExecuteAll().qualifying_tuples, 3u);
}

TEST(PipelineTest, Int64ColumnPredicates) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn<int64_t>("x", {10, 20, 30}).ok());
  Pmu pmu;
  auto exec = PipelineExecutor::Compile(
      t, {OperatorSpec::Predicate({"x", CompareOp::kLe, 20.0})}, {}, &pmu);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec.ValueOrDie()->ExecuteAll().qualifying_tuples, 2u);
}

}  // namespace
}  // namespace nipo
