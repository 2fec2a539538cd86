/// \file storage_scan_test.cc
/// End-to-end gates of the compressed storage layer (DESIGN.md Section
/// 10) and the unified Execute facade:
///
///  1. Encodings off, the legacy entry points and Engine::Execute are
///     bit-identical -- results AND simulated counters -- across solo
///     baseline, progressive, sharded (1 and 4 threads) and workload
///     paths (they are shims over the same code).
///  2. Scans over encoded columns return exactly the plain-storage
///     results, with zone maps skipping whole blocks on selective
///     predicates over clustered data.
///  3. FK probes, payload sums and the out-of-range FK latch all work
///     over encoded storage.
///  4. A progressive run over encoded storage sees the zone-skip signal
///     (zone_skipped_tuples flows through its windows).

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/operators.h"
#include "storage/encoding.h"
#include "tpch/q6.h"
#include "tpch/tpch_gen.h"

namespace nipo {
namespace {

TpchConfig SmallTpch() {
  TpchConfig config;
  config.scale_factor = 0.02;  // ~120k lineitems
  return config;
}

QuerySpec Q6Query() {
  QuerySpec query;
  query.table = "lineitem";
  query.ops = MakeQ6FullPredicates();
  query.payload_columns = Q6PayloadColumns();
  return query;
}

/// Engine with the TPC-H tables registered; encodes every table first
/// when `encoded`.
Engine MakeEngine(const TpchConfig& config, bool encoded) {
  Engine engine(HwConfig::ScaledXeon(16));
  auto db = GenerateTpch(config);
  NIPO_CHECK(db.ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().lineitem)).ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().orders)).ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().part)).ok());
  if (encoded) {
    for (const char* table : {"lineitem", "orders", "part"}) {
      auto stats = engine.EncodeTable(table);
      NIPO_CHECK(stats.ok());
      NIPO_CHECK(stats.ValueOrDie().columns_encoded > 0);
    }
  }
  return engine;
}

TEST(StorageScanTest, UnifiedExecuteReportsAgreePlain) {
  // Encodings off: every (mode, driver) pair engages its own sub-report,
  // whose drive the headline numbers copy bit-for-bit, and the
  // single-worker sharded drive reproduces the solo counters (same
  // engine, same registered arrays, so the address-based cache simulation
  // sees identical addresses).
  Engine engine = MakeEngine(SmallTpch(), /*encoded=*/false);
  const QuerySpec query = Q6Query();
  const size_t kVectorSize = 4'096;

  ExecOptions options;
  options.vector_size = kVectorSize;
  auto solo = engine.Execute(query, options);
  ASSERT_TRUE(solo.ok());
  const ExecReport& s = solo.ValueOrDie();
  EXPECT_EQ(s.mode, ExecMode::kBaseline);
  EXPECT_EQ(s.driver, ExecDriver::kSolo);
  ASSERT_TRUE(s.baseline.has_value());
  EXPECT_EQ(s.baseline->drive.total, s.counters);
  EXPECT_EQ(s.baseline->drive.aggregate, s.aggregate);
  EXPECT_EQ(s.baseline->drive.qualifying_tuples, s.qualifying_tuples);
  EXPECT_EQ(s.zone_skipped_tuples, 0u);  // plain storage never skips

  {  // solo progressive
    ExecOptions prog;
    prog.mode = ExecMode::kProgressive;
    prog.progressive.vector_size = kVectorSize;
    prog.progressive.reopt_interval = 5;
    auto run = engine.Execute(query, prog);
    ASSERT_TRUE(run.ok());
    const ExecReport& u = run.ValueOrDie();
    EXPECT_EQ(u.driver, ExecDriver::kSolo);
    ASSERT_TRUE(u.progressive.has_value());
    EXPECT_EQ(u.progressive->drive.total, u.counters);
    EXPECT_EQ(u.progressive->drive.aggregate, u.aggregate);
    EXPECT_EQ(u.progressive->final_order, u.final_order);
    EXPECT_EQ(u.qualifying_tuples, s.qualifying_tuples);
  }
  for (const size_t threads : {size_t{1}, size_t{4}}) {  // sharded
    ExecOptions sharded = options;
    sharded.driver = ExecDriver::kSharded;
    sharded.num_threads = threads;
    auto run = engine.Execute(query, sharded);
    ASSERT_TRUE(run.ok());
    const ExecReport& u = run.ValueOrDie();
    EXPECT_EQ(u.driver, ExecDriver::kSharded);
    ASSERT_TRUE(u.sharded_baseline.has_value());
    EXPECT_EQ(u.sharded_baseline->drive.merged.total, u.counters);
    if (threads == 1) {
      // Work stealing at >1 thread is timing-dependent, so per-worker
      // predictor state (hence merged mispredictions/cycles) is only
      // pinned for the single-worker shard.
      EXPECT_EQ(u.counters, s.counters);
    }
    EXPECT_EQ(u.aggregate, s.aggregate);
    EXPECT_EQ(u.qualifying_tuples, s.qualifying_tuples);
  }
}

TEST(StorageScanTest, EncodedScanMatchesPlainWithZoneSkipping) {
  // Selective shipdate window over bulk-load-clustered lineitem: the
  // encoded engine must return the plain engine's exact result while
  // zone maps prune most blocks.
  Engine plain = MakeEngine(SmallTpch(), /*encoded=*/false);
  Engine encoded = MakeEngine(SmallTpch(), /*encoded=*/true);

  QuerySpec query = Q6Query();
  ExecOptions options;
  options.vector_size = 4'096;

  auto p = plain.Execute(query, options);
  auto e = encoded.Execute(query, options);
  ASSERT_TRUE(p.ok() && e.ok());
  EXPECT_EQ(p.ValueOrDie().qualifying_tuples,
            e.ValueOrDie().qualifying_tuples);
  EXPECT_EQ(p.ValueOrDie().aggregate, e.ValueOrDie().aggregate);
  EXPECT_EQ(p.ValueOrDie().zone_skipped_tuples, 0u);
  EXPECT_GT(e.ValueOrDie().zone_skipped_tuples, 0u);

  // Cross-check against the scalar reference (which itself reads the
  // encoded table through ColumnView).
  auto ref = ComputeQ6Reference(*encoded.GetTable("lineitem").ValueOrDie(),
                                query.ops);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.ValueOrDie().qualifying,
            e.ValueOrDie().qualifying_tuples);

  // The same equality must hold when nothing is prunable: an
  // all-passing predicate no zone map can refute.
  QuerySpec full;
  full.table = "lineitem";
  full.ops = {OperatorSpec::Predicate({"l_quantity", CompareOp::kLe, 50.0})};
  full.payload_columns = Q6PayloadColumns();
  auto pf = plain.Execute(full, options);
  auto ef = encoded.Execute(full, options);
  ASSERT_TRUE(pf.ok() && ef.ok());
  EXPECT_EQ(pf.ValueOrDie().aggregate, ef.ValueOrDie().aggregate);
  EXPECT_EQ(pf.ValueOrDie().qualifying_tuples,
            ef.ValueOrDie().qualifying_tuples);
}

TEST(StorageScanTest, ZoneSkippingConsistentAcrossDrivers) {
  // Solo, sharded x1 and sharded x4 partition rows into the same
  // fixed-size ranges, so the zone-skip totals -- not just the results
  // -- must agree.
  Engine engine = MakeEngine(SmallTpch(), /*encoded=*/true);
  const QuerySpec query = Q6Query();
  const size_t kSize = 4'096;

  ExecOptions solo;
  solo.vector_size = kSize;
  auto solo_run = engine.Execute(query, solo);
  ASSERT_TRUE(solo_run.ok());
  const ExecReport& s = solo_run.ValueOrDie();
  EXPECT_GT(s.zone_skipped_tuples, 0u);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions sharded;
    sharded.driver = ExecDriver::kSharded;
    sharded.num_threads = threads;
    sharded.vector_size = kSize;
    auto run = engine.Execute(query, sharded);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.ValueOrDie().qualifying_tuples, s.qualifying_tuples);
    EXPECT_EQ(run.ValueOrDie().aggregate, s.aggregate);
    EXPECT_EQ(run.ValueOrDie().zone_skipped_tuples, s.zone_skipped_tuples)
        << "threads=" << threads;
  }
}

TEST(StorageScanTest, ExecutionBlocksStraddlingStorageBlocksMatchPlain) {
  // Three full storage blocks and a partial fourth; block b holds
  // b * 1000 + (0..499). Vectors of 1,000 and 3,000 rows start off the
  // 1,024-row grid, so execution blocks straddle storage boundaries.
  // v >= 1000 refutes block 0 and v < 3000 refutes block 3: an execution
  // block inside one of them is skipped, and one straddling into block 1
  // or 2 is evaluated tuple by tuple.
  const size_t rows = 3 * kBlockValues + 5'000;
  std::vector<int32_t> v(rows), pay(rows);
  uint64_t want_qualifying = 0;
  double want_aggregate = 0;
  for (size_t i = 0; i < rows; ++i) {
    v[i] = static_cast<int32_t>(i / kBlockValues * 1000 + i % 500);
    pay[i] = static_cast<int32_t>(i % 97);
    if (v[i] >= 1000 && v[i] < 3000) {
      ++want_qualifying;
      want_aggregate += pay[i];
    }
  }
  Engine plain, encoded;
  for (Engine* engine : {&plain, &encoded}) {
    auto table = std::make_unique<Table>("t");
    NIPO_CHECK(table->AddColumn("v", v).ok());
    NIPO_CHECK(table->AddColumn("pay", pay).ok());
    NIPO_CHECK(engine->RegisterTable(std::move(table)).ok());
  }
  ASSERT_TRUE(encoded.EncodeTable("t").ok());
  QuerySpec query;
  query.table = "t";
  query.ops = {OperatorSpec::Predicate({"v", CompareOp::kGe, 1000.0}),
               OperatorSpec::Predicate({"v", CompareOp::kLt, 3000.0})};
  query.payload_columns = {"pay"};

  for (const size_t vector_size : {size_t{1'000}, size_t{3'000}}) {
    // Rows in execution blocks that lie inside block 0 or block 3.
    uint64_t want_skipped = 0;
    for (size_t start = 0; start < rows; start += vector_size) {
      const size_t end = std::min(start + vector_size, rows);
      for (size_t b = start; b < end; b += kSimBlockRows) {
        const size_t n = std::min(kSimBlockRows, end - b);
        if (b + n <= kBlockValues || b >= 3 * kBlockValues) want_skipped += n;
      }
    }
    ExecOptions options;
    options.vector_size = vector_size;
    auto p = plain.Execute(query, options);
    auto e = encoded.Execute(query, options);
    ExecOptions sharded = options;
    sharded.driver = ExecDriver::kSharded;
    auto es = encoded.Execute(query, sharded);
    ASSERT_TRUE(p.ok() && e.ok() && es.ok());
    for (const ExecReport* r :
         {&p.ValueOrDie(), &e.ValueOrDie(), &es.ValueOrDie()}) {
      EXPECT_EQ(r->qualifying_tuples, want_qualifying) << vector_size;
      EXPECT_EQ(r->aggregate, want_aggregate) << vector_size;
      // The branch identity over the tuples actually evaluated.
      EXPECT_EQ(2 * (r->input_tuples - r->zone_skipped_tuples) -
                    r->counters.branches_taken,
                r->qualifying_tuples);
    }
    EXPECT_EQ(p.ValueOrDie().zone_skipped_tuples, 0u);
    EXPECT_GT(want_skipped, 0u);
    // Morsels of the vector size split rows on the solo drive's grid.
    EXPECT_EQ(e.ValueOrDie().zone_skipped_tuples, want_skipped)
        << vector_size;
    EXPECT_EQ(es.ValueOrDie().zone_skipped_tuples, want_skipped)
        << vector_size;
  }
}

TEST(StorageScanTest, FkProbeAndPayloadOverEncodedStorage) {
  Engine plain = MakeEngine(SmallTpch(), /*encoded=*/false);
  Engine encoded = MakeEngine(SmallTpch(), /*encoded=*/true);

  auto build_query = [](Engine& engine) {
    QuerySpec query;
    query.table = "lineitem";
    query.ops = {
        OperatorSpec::Predicate({"l_quantity", CompareOp::kLe, 25.0}),
        OperatorSpec::FkProbe({"l_orderkey",
                               engine.GetTable("orders").ValueOrDie(),
                               "o_totalprice", CompareOp::kLe, 2.5e6}),
    };
    query.payload_columns = {"l_extendedprice"};
    return query;
  };

  ExecOptions options;
  options.vector_size = 4'096;
  auto p = plain.Execute(build_query(plain), options);
  auto e = encoded.Execute(build_query(encoded), options);
  ASSERT_TRUE(p.ok() && e.ok());
  EXPECT_EQ(p.ValueOrDie().qualifying_tuples,
            e.ValueOrDie().qualifying_tuples);
  EXPECT_EQ(p.ValueOrDie().aggregate, e.ValueOrDie().aggregate);
}

TEST(StorageScanTest, OutOfRangeFkLatchesOverEncodedStorage) {
  // A fact table whose FK points past the dimension: the probe must
  // latch Status::OutOfRange, encoded or not (the decode path hands the
  // executor the same bad key the plain path would).
  for (const bool encode : {false, true}) {
    Engine engine;
    auto dim = std::make_unique<Table>("dim");
    NIPO_CHECK(dim->AddColumn("d_value",
                              std::vector<int32_t>{1, 2, 3}).ok());
    auto fact = std::make_unique<Table>("fact");
    NIPO_CHECK(fact->AddColumn(
        "fk", std::vector<int32_t>{0, 1, 2, 99, 1}).ok());
    NIPO_CHECK(engine.RegisterTable(std::move(dim)).ok());
    NIPO_CHECK(engine.RegisterTable(std::move(fact)).ok());
    if (encode) {
      NIPO_CHECK(engine.EncodeTable("fact").ok());
      NIPO_CHECK(engine.EncodeTable("dim").ok());
    }
    QuerySpec query;
    query.table = "fact";
    query.ops = {OperatorSpec::FkProbe(
        {"fk", engine.GetTable("dim").ValueOrDie(), "d_value",
         CompareOp::kLe, 10.0})};
    auto run = engine.Execute(query, {});
    ASSERT_FALSE(run.ok()) << "encode=" << encode;
    EXPECT_EQ(run.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(StorageScanTest, ProgressiveSeesZoneSkipping) {
  // Progressive over encoded clustered lineitem: results must match the
  // baseline and the zone-skip signal must flow through the sampled
  // windows into the report.
  Engine engine = MakeEngine(SmallTpch(), /*encoded=*/true);
  const QuerySpec query = Q6Query();

  ExecOptions base;
  base.vector_size = 4'096;
  auto baseline = engine.Execute(query, base);
  ASSERT_TRUE(baseline.ok());

  ExecOptions prog;
  prog.mode = ExecMode::kProgressive;
  prog.progressive.vector_size = 4'096;
  prog.progressive.reopt_interval = 5;
  auto progressive = engine.Execute(query, prog);
  ASSERT_TRUE(progressive.ok());

  const ExecReport& p = progressive.ValueOrDie();
  EXPECT_EQ(p.qualifying_tuples, baseline.ValueOrDie().qualifying_tuples);
  EXPECT_EQ(p.aggregate, baseline.ValueOrDie().aggregate);
  EXPECT_GT(p.zone_skipped_tuples, 0u);
  ASSERT_TRUE(p.progressive.has_value());
}

}  // namespace
}  // namespace nipo
