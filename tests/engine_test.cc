#include "core/engine.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace nipo {
namespace {

std::unique_ptr<Table> MakeTable(const std::string& name, size_t n) {
  Prng prng(1);
  std::vector<int32_t> a(n), b(n);
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    v[i] = 1;
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(t->AddColumn("b", std::move(b)).ok());
  EXPECT_TRUE(t->AddColumn("v", std::move(v)).ok());
  return t;
}

QuerySpec MakeQuery() {
  QuerySpec q;
  q.table = "t";
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 50.0}),
           OperatorSpec::Predicate({"b", CompareOp::kLt, 10.0})};
  q.payload_columns = {"v"};
  return q;
}

/// Solo fixed-order drive at `vector_size`.
ExecOptions BaselineOptions(size_t vector_size) {
  ExecOptions options;
  options.vector_size = vector_size;
  return options;
}

/// Solo progressive drive under `config`.
ExecOptions ProgressiveOptions(const ProgressiveConfig& config) {
  ExecOptions options;
  options.mode = ExecMode::kProgressive;
  options.progressive = config;
  return options;
}

TEST(EngineTest, RegisterAndLookup) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 100)).ok());
  EXPECT_TRUE(engine.GetTable("t").ok());
  EXPECT_EQ(engine.GetTable("zzz").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.GetMutableTable("t").ok());
  EXPECT_EQ(engine.RegisterTable(MakeTable("t", 5)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.RegisterTable(nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, BaselineExecutesSpecOrder) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 50'000)).ok());
  auto r = engine.Execute(MakeQuery(), BaselineOptions(4'096));
  ASSERT_TRUE(r.ok());
  const ExecReport& report = r.ValueOrDie();
  EXPECT_EQ(report.mode, ExecMode::kBaseline);
  EXPECT_EQ(report.driver, ExecDriver::kSolo);
  ASSERT_TRUE(report.baseline.has_value());
  EXPECT_EQ(report.baseline->order, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(report.final_order, (std::vector<size_t>{0, 1}));
  EXPECT_GT(report.qualifying_tuples, 0u);
  EXPECT_EQ(report.qualifying_tuples, report.baseline->drive.qualifying_tuples);
  // aggregate counts qualifying rows since v == 1.
  EXPECT_DOUBLE_EQ(report.aggregate,
                   static_cast<double>(report.qualifying_tuples));
}

TEST(EngineTest, BaselineHonorsExplicitOrder) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 50'000)).ok());
  ExecOptions options = BaselineOptions(4'096);
  options.order = std::vector<size_t>{1, 0};
  auto r = engine.Execute(MakeQuery(), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().final_order, (std::vector<size_t>{1, 0}));
}

TEST(EngineTest, BaselineIsDeterministic) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 50'000)).ok());
  auto a = engine.Execute(MakeQuery(), BaselineOptions(4'096));
  auto b = engine.Execute(MakeQuery(), BaselineOptions(4'096));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().counters.cycles, b.ValueOrDie().counters.cycles);
  EXPECT_EQ(a.ValueOrDie().counters.l3_accesses,
            b.ValueOrDie().counters.l3_accesses);
}

TEST(EngineTest, ProgressiveMatchesBaselineResult) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 80'000)).ok());
  auto base = engine.Execute(MakeQuery(), BaselineOptions(4'096));
  ProgressiveConfig cfg;
  cfg.vector_size = 4'096;
  cfg.reopt_interval = 3;
  auto prog = engine.Execute(MakeQuery(), ProgressiveOptions(cfg));
  ASSERT_TRUE(base.ok() && prog.ok());
  ASSERT_TRUE(prog.ValueOrDie().progressive.has_value());
  EXPECT_EQ(base.ValueOrDie().qualifying_tuples,
            prog.ValueOrDie().qualifying_tuples);
  EXPECT_DOUBLE_EQ(base.ValueOrDie().aggregate,
                   prog.ValueOrDie().aggregate);
}

TEST(EngineTest, ProgressiveHonorsInitialOrder) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 20'000)).ok());
  ProgressiveConfig cfg;
  cfg.vector_size = 4'096;
  cfg.reopt_interval = 1000;  // effectively never reoptimize
  ExecOptions options = ProgressiveOptions(cfg);
  options.order = std::vector<size_t>{1, 0};
  auto prog = engine.Execute(MakeQuery(), options);
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ(prog.ValueOrDie().final_order, (std::vector<size_t>{1, 0}));
}

TEST(EngineTest, ErrorsPropagate) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 100)).ok());
  QuerySpec bad = MakeQuery();
  bad.table = "missing";
  EXPECT_EQ(engine.Execute(bad, BaselineOptions(1024)).status().code(),
            StatusCode::kNotFound);
  bad = MakeQuery();
  bad.ops[0].predicate.column = "zzz";
  EXPECT_FALSE(engine.Execute(bad, BaselineOptions(1024)).ok());
  EXPECT_FALSE(engine.Execute(MakeQuery(), BaselineOptions(0)).ok());
  ProgressiveConfig cfg;
  cfg.vector_size = 0;
  EXPECT_FALSE(engine.Execute(MakeQuery(), ProgressiveOptions(cfg)).ok());
  // Bad explicit order.
  ExecOptions options = BaselineOptions(1024);
  options.order = std::vector<size_t>{0, 0};
  EXPECT_FALSE(engine.Execute(MakeQuery(), options).ok());
}

TEST(EngineTest, ZeroReoptIntervalIsInvalidArgumentOnEveryDriver) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 100)).ok());
  ProgressiveConfig cfg;
  cfg.reopt_interval = 0;
  ExecOptions options = ProgressiveOptions(cfg);
  for (ExecDriver driver : {ExecDriver::kSolo, ExecDriver::kSharded}) {
    options.driver = driver;
    auto r = engine.Execute(MakeQuery(), options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("reopt_interval"), std::string::npos);
  }
}

TEST(EngineTest, ShardedBaselineZeroVectorSizeNamesTheField) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterTable(MakeTable("t", 100)).ok());
  ExecOptions options = BaselineOptions(0);
  options.driver = ExecDriver::kSharded;
  options.num_threads = 2;
  auto r = engine.Execute(MakeQuery(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("vector_size"), std::string::npos);
}

TEST(EngineTest, AllOrdersEnumerates) {
  EXPECT_EQ(AllOrders(1).size(), 1u);
  EXPECT_EQ(AllOrders(3).size(), 6u);
  EXPECT_EQ(AllOrders(5).size(), 120u);  // the paper's permutation count
  const auto orders = AllOrders(3);
  // Lexicographic, starting with identity.
  EXPECT_EQ(orders.front(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(orders.back(), (std::vector<size_t>{2, 1, 0}));
}

}  // namespace
}  // namespace nipo
