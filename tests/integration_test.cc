/// \file integration_test.cc
/// Cross-module scenarios: TPC-H Q6 end to end, counter identities on
/// real data, model-vs-simulator agreement on the full query, and the
/// paper's qualitative claims at test scale.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "cost/counter_model.h"
#include "optimizer/progressive.h"
#include "tpch/distributions.h"
#include "tpch/q6.h"
#include "tpch/tpch_gen.h"

namespace nipo {
namespace {

/// Solo fixed-order drive at `vector_size`, in `order` when given.
ExecOptions BaselineOptions(
    size_t vector_size,
    std::optional<std::vector<size_t>> order = std::nullopt) {
  ExecOptions options;
  options.vector_size = vector_size;
  options.order = std::move(order);
  return options;
}

class Q6IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig cfg;
    cfg.scale_factor = 0.02;  // ~120k lineitems
    engine_ = new Engine(HwConfig::ScaledXeon(16));
    auto db = GenerateTpch(cfg);
    ASSERT_TRUE(db.ok());
    reference_table_ = db.ValueOrDie().lineitem.get();
    auto ref = ComputeQ6Reference(*db.ValueOrDie().lineitem,
                                  MakeQ6FullPredicates());
    ASSERT_TRUE(ref.ok());
    reference_ = ref.ValueOrDie();
    ASSERT_TRUE(engine_->RegisterTable(
        std::move(db.ValueOrDie().lineitem)).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static QuerySpec Query() {
    QuerySpec q;
    q.table = "lineitem";
    q.ops = MakeQ6FullPredicates();
    q.payload_columns = Q6PayloadColumns();
    return q;
  }

  static Engine* engine_;
  static Table* reference_table_;  // owned by engine_ after registration
  static Q6Reference reference_;
};

Engine* Q6IntegrationTest::engine_ = nullptr;
Table* Q6IntegrationTest::reference_table_ = nullptr;
Q6Reference Q6IntegrationTest::reference_;

TEST_F(Q6IntegrationTest, EveryOrderProducesTheReferenceResult) {
  for (const auto& order : AllOrders(5)) {
    auto r = engine_->Execute(Query(), BaselineOptions(8'192, order));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.ValueOrDie().qualifying_tuples, reference_.qualifying);
    ASSERT_DOUBLE_EQ(r.ValueOrDie().aggregate, reference_.revenue);
  }
}

TEST_F(Q6IntegrationTest, BranchesTakenIdentityOnRealData) {
  auto r = engine_->Execute(Query(), BaselineOptions(8'192));
  ASSERT_TRUE(r.ok());
  const ExecReport& d = r.ValueOrDie();
  EXPECT_EQ(2 * d.input_tuples - d.counters.branches_taken,
            d.qualifying_tuples);
}

TEST_F(Q6IntegrationTest, CounterModelMatchesSimulatedScan) {
  // Measure true per-position selectivities, predict counters, compare to
  // the PMU sample of the full run.
  //
  // The scan counter model assumes (a) distinct predicate columns (Q6's
  // repeated shipdate/discount bounds re-read a column that is already in
  // L1, which the model would double count) and (b) value positions
  // independent of selectivity (the generator's weak shipdate clustering
  // violates that). So this test uses one predicate per distinct column
  // on a randomly re-laid-out copy of lineitem -- the regime the model is
  // specified for; the estimator tests cover its use on rougher inputs.
  TpchConfig gen_cfg;
  gen_cfg.scale_factor = 0.02;
  auto li_owned = GenerateLineitem(gen_cfg);
  ASSERT_TRUE(li_owned.ok());
  Prng prng(33);
  ASSERT_TRUE(ApplyLayout(li_owned.ValueOrDie().get(), "l_shipdate",
                          Layout::kRandom, &prng)
                  .ok());
  Engine engine(HwConfig::ScaledXeon(16));
  const Table* li = li_owned.ValueOrDie().get();
  QuerySpec q;
  q.table = "lineitem";
  const double ship_median = static_cast<double>(
      ValueForSelectivity(*li, "l_shipdate", 0.5).ValueOrDie());
  q.ops = {
      OperatorSpec::Predicate({"l_shipdate", CompareOp::kLe, ship_median}),
      OperatorSpec::Predicate({"l_quantity", CompareOp::kLt, 24.0}),
      OperatorSpec::Predicate({"l_discount", CompareOp::kLe, 7.0}),
      OperatorSpec::Predicate({"l_tax", CompareOp::kLe, 4.0}),
  };
  // Payload distinct from every predicate column (the model does not
  // account for repeated-column L1 reuse).
  q.payload_columns = {"l_extendedprice"};
  ASSERT_TRUE(engine.RegisterTable(std::move(li_owned.ValueOrDie())).ok());
  auto r = engine.Execute(q, BaselineOptions(8'192));
  ASSERT_TRUE(r.ok());

  // Conditional per-position selectivities by direct evaluation.
  std::vector<double> sel;
  {
    std::vector<const ColumnBase*> cols;
    std::vector<const OperatorSpec*> ops;
    for (const auto& op : q.ops) {
      cols.push_back(li->GetColumn(op.predicate.column).ValueOrDie());
      ops.push_back(&op);
    }
    std::vector<uint64_t> reached(q.ops.size() + 1, 0);
    for (size_t row = 0; row < li->num_rows(); ++row) {
      size_t pos = 0;
      for (; pos < ops.size(); ++pos) {
        ++reached[pos];
        const auto* col32 = static_cast<const Column<int32_t>*>(cols[pos]);
        if (!EvaluateCompare(static_cast<double>((*col32)[row]),
                             ops[pos]->predicate.op,
                             ops[pos]->predicate.value)) {
          break;
        }
      }
      if (pos == ops.size()) ++reached[ops.size()];
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      sel.push_back(reached[i] == 0
                        ? 1.0
                        : static_cast<double>(reached[i + 1]) /
                              static_cast<double>(reached[i]));
    }
  }

  ScanShape shape;
  shape.num_tuples = static_cast<double>(li->num_rows());
  shape.predicate_widths.assign(q.ops.size(), 4);
  shape.payload_widths = {8};
  shape.predictor = engine.hw_config().predictor;
  const CounterEstimate predicted = PredictCounters(shape, sel);
  const PmuCounters& sampled = r.ValueOrDie().counters;

  EXPECT_NEAR(static_cast<double>(sampled.branches_not_taken) /
                  predicted.branches_not_taken,
              1.0, 0.02);
  EXPECT_NEAR(static_cast<double>(sampled.l3_accesses) /
                  predicted.l3_accesses,
              1.0, 0.15);
  EXPECT_NEAR(static_cast<double>(sampled.taken_mispredictions +
                                  sampled.not_taken_mispredictions) /
                  (predicted.taken_mp + predicted.not_taken_mp),
              1.0, 0.20);
}

TEST_F(Q6IntegrationTest, ProgressiveRobustAcrossAllStartOrders) {
  // The paper's Figure 11 claim, qualitatively: from *any* initial PEO,
  // the progressive run must come close to the best fixed order and far
  // from the worst one.
  double best = 1e300, worst = 0;
  for (const auto& order : AllOrders(5)) {
    auto r = engine_->Execute(Query(), BaselineOptions(8'192, order));
    ASSERT_TRUE(r.ok());
    best = std::min(best, r.ValueOrDie().simulated_msec);
    worst = std::max(worst, r.ValueOrDie().simulated_msec);
  }
  ASSERT_GT(worst / best, 1.3);  // ordering must matter at this scale

  ExecOptions prog_options;
  prog_options.mode = ExecMode::kProgressive;
  prog_options.progressive.vector_size = 2'048;
  prog_options.progressive.reopt_interval = 2;
  // Sample a few representative start orders, including the worst shape.
  for (const auto& order :
       {std::vector<size_t>{0, 1, 2, 3, 4}, std::vector<size_t>{4, 3, 2, 1, 0},
        std::vector<size_t>{2, 4, 0, 1, 3}}) {
    prog_options.order = order;
    auto prog = engine_->Execute(Query(), prog_options);
    ASSERT_TRUE(prog.ok());
    // At this small scale convergence time is a visible fraction of the
    // run; the paper's 600-vector runs amortize it much further.
    const double ms = prog.ValueOrDie().simulated_msec;
    EXPECT_LT(ms, worst * 0.95);
    EXPECT_LT(ms, best * 2.0);
  }
}

TEST(IntegrationTest, SortednessChangesOptimalJoinOrderEndToEnd) {
  // Fact co-clustered with dim A but random into dim B of equal filter
  // selectivity: join order A-first must beat B-first, and the simulated
  // counters must reveal it via L3 misses.
  const size_t kFact = 200'000, kDim = 100'000;
  Prng prng(3);
  std::vector<int32_t> fk_a(kFact), fk_b(kFact), filler(kFact);
  for (size_t i = 0; i < kFact; ++i) {
    fk_a[i] = static_cast<int32_t>((i * kDim) / kFact);  // co-clustered
    fk_b[i] = static_cast<int32_t>(prng.NextBounded(kDim));  // random
    filler[i] = 0;
  }
  auto fact = std::make_unique<Table>("fact");
  ASSERT_TRUE(fact->AddColumn("fk_a", std::move(fk_a)).ok());
  ASSERT_TRUE(fact->AddColumn("fk_b", std::move(fk_b)).ok());
  ASSERT_TRUE(fact->AddColumn("filler", std::move(filler)).ok());

  auto make_dim = [&](const std::string& name) {
    Prng local(7);
    std::vector<int32_t> attr(kDim);
    for (size_t i = 0; i < kDim; ++i) {
      attr[i] = static_cast<int32_t>(local.NextBounded(100));
    }
    auto t = std::make_unique<Table>(name);
    EXPECT_TRUE(t->AddColumn("attr", std::move(attr)).ok());
    return t;
  };

  Engine engine(HwConfig::ScaledXeon(64));
  ASSERT_TRUE(engine.RegisterTable(std::move(fact)).ok());
  ASSERT_TRUE(engine.RegisterTable(make_dim("dim_a")).ok());
  ASSERT_TRUE(engine.RegisterTable(make_dim("dim_b")).ok());

  QuerySpec q;
  q.table = "fact";
  q.ops = {OperatorSpec::FkProbe({"fk_a",
                                  engine.GetTable("dim_a").ValueOrDie(),
                                  "attr", CompareOp::kLt, 50.0}),
           OperatorSpec::FkProbe({"fk_b",
                                  engine.GetTable("dim_b").ValueOrDie(),
                                  "attr", CompareOp::kLt, 50.0})};

  auto a_first =
      engine.Execute(q, BaselineOptions(8'192, std::vector<size_t>{0, 1}));
  auto b_first =
      engine.Execute(q, BaselineOptions(8'192, std::vector<size_t>{1, 0}));
  ASSERT_TRUE(a_first.ok() && b_first.ok());
  EXPECT_LT(a_first.ValueOrDie().simulated_msec,
            b_first.ValueOrDie().simulated_msec);
  EXPECT_LT(a_first.ValueOrDie().counters.l3_misses,
            b_first.ValueOrDie().counters.l3_misses);
  EXPECT_EQ(a_first.ValueOrDie().qualifying_tuples,
            b_first.ValueOrDie().qualifying_tuples);
}

TEST(IntegrationTest, LayoutsChangeCountersNotResults) {
  TpchConfig cfg;
  cfg.scale_factor = 0.01;
  Prng prng(21);
  uint64_t qualifying[3];
  uint64_t l3_misses[3];
  int idx = 0;
  for (Layout layout :
       {Layout::kSorted, Layout::kClustered, Layout::kRandom}) {
    auto li = GenerateLineitem(cfg);
    ASSERT_TRUE(li.ok());
    ASSERT_TRUE(
        ApplyLayout(li.ValueOrDie().get(), "l_shipdate", layout, &prng)
            .ok());
    Engine engine(HwConfig::ScaledXeon(16));
    ASSERT_TRUE(engine.RegisterTable(std::move(li.ValueOrDie())).ok());
    QuerySpec q;
    q.table = "lineitem";
    q.ops = MakeQ6FullPredicates();
    q.payload_columns = Q6PayloadColumns();
    auto r = engine.Execute(q, BaselineOptions(4'096));
    ASSERT_TRUE(r.ok());
    qualifying[idx] = r.ValueOrDie().qualifying_tuples;
    l3_misses[idx] = r.ValueOrDie().counters.l3_misses;
    ++idx;
  }
  // Same logical result regardless of physical layout...
  EXPECT_EQ(qualifying[0], qualifying[1]);
  EXPECT_EQ(qualifying[1], qualifying[2]);
  // ...but different memory behaviour (sorted layout skips whole regions
  // after the shipdate filter, random cannot).
  EXPECT_NE(l3_misses[0], l3_misses[2]);
}

}  // namespace
}  // namespace nipo
