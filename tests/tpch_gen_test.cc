#include "tpch/tpch_gen.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tpch/distributions.h"

namespace nipo {
namespace {

TpchConfig SmallConfig() {
  TpchConfig cfg;
  cfg.scale_factor = 0.01;  // 15k orders, ~60k lineitems
  cfg.seed = 42;
  return cfg;
}

TEST(TpchGenTest, TableShapes) {
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  const TpchDatabase& d = db.ValueOrDie();
  EXPECT_EQ(d.orders->num_rows(), 15'000u);
  EXPECT_EQ(d.part->num_rows(), 2'000u);
  // 1..7 lineitems per order, expectation 4.
  EXPECT_GT(d.lineitem->num_rows(), 15'000u * 2);
  EXPECT_LT(d.lineitem->num_rows(), 15'000u * 7);
  EXPECT_EQ(d.lineitem->num_columns(), 9u);
}

TEST(TpchGenTest, DeterministicAcrossCalls) {
  auto a = GenerateTpch(SmallConfig());
  auto b = GenerateTpch(SmallConfig());
  ASSERT_TRUE(a.ok() && b.ok());
  const auto qa = a.ValueOrDie().lineitem->GetTypedColumn<int32_t>(
      "l_quantity");
  const auto qb = b.ValueOrDie().lineitem->GetTypedColumn<int32_t>(
      "l_quantity");
  ASSERT_TRUE(qa.ok() && qb.ok());
  ASSERT_EQ(qa.ValueOrDie()->size(), qb.ValueOrDie()->size());
  for (size_t i = 0; i < qa.ValueOrDie()->size(); ++i) {
    ASSERT_EQ((*qa.ValueOrDie())[i], (*qb.ValueOrDie())[i]);
  }
}

TEST(TpchGenTest, DifferentSeedsProduceDifferentData) {
  TpchConfig cfg = SmallConfig();
  auto a = GenerateTpch(cfg);
  cfg.seed = 43;
  auto b = GenerateTpch(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto& qa =
      *a.ValueOrDie().lineitem->GetTypedColumn<int32_t>("l_quantity")
           .ValueOrDie();
  const auto& qb =
      *b.ValueOrDie().lineitem->GetTypedColumn<int32_t>("l_quantity")
           .ValueOrDie();
  size_t differing = 0;
  const size_t n = std::min(qa.size(), qb.size());
  for (size_t i = 0; i < n; ++i) {
    if (qa[i] != qb[i]) ++differing;
  }
  EXPECT_GT(differing, n / 2);
}

TEST(TpchGenTest, ValueDomains) {
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  const Table& li = *db.ValueOrDie().lineitem;
  const auto& quantity =
      *li.GetTypedColumn<int32_t>("l_quantity").ValueOrDie();
  const auto& discount =
      *li.GetTypedColumn<int32_t>("l_discount").ValueOrDie();
  const auto& tax = *li.GetTypedColumn<int32_t>("l_tax").ValueOrDie();
  const auto& shipdate =
      *li.GetTypedColumn<int32_t>("l_shipdate").ValueOrDie();
  const auto& price =
      *li.GetTypedColumn<int64_t>("l_extendedprice").ValueOrDie();
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ASSERT_GE(quantity[i], 1);
    ASSERT_LE(quantity[i], 50);
    ASSERT_GE(discount[i], 0);
    ASSERT_LE(discount[i], 10);
    ASSERT_GE(tax[i], 0);
    ASSERT_LE(tax[i], 8);
    ASSERT_GE(shipdate[i], TpchStartDay());
    ASSERT_LE(shipdate[i], TpchEndDay());
    ASSERT_GT(price[i], 0);
  }
}

TEST(TpchGenTest, ForeignKeysAreValidPositionalIds) {
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  const TpchDatabase& d = db.ValueOrDie();
  const auto& orderkey =
      *d.lineitem->GetTypedColumn<int32_t>("l_orderkey").ValueOrDie();
  const auto& partkey =
      *d.lineitem->GetTypedColumn<int32_t>("l_partkey").ValueOrDie();
  for (size_t i = 0; i < d.lineitem->num_rows(); ++i) {
    ASSERT_GE(orderkey[i], 0);
    ASSERT_LT(orderkey[i], static_cast<int32_t>(d.orders->num_rows()));
    ASSERT_GE(partkey[i], 0);
    ASSERT_LT(partkey[i], static_cast<int32_t>(d.part->num_rows()));
  }
}

TEST(TpchGenTest, LineitemCoClusteredWithOrders) {
  // l_orderkey must be non-decreasing: the bulk-load co-clustering the
  // join experiments rely on.
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  const auto& orderkey =
      *db.ValueOrDie().lineitem->GetTypedColumn<int32_t>("l_orderkey")
           .ValueOrDie();
  for (size_t i = 1; i < orderkey.size(); ++i) {
    ASSERT_LE(orderkey[i - 1], orderkey[i]);
  }
}

TEST(TpchGenTest, ShipdateWeaklyClusteredWhenConfigured) {
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  const auto& ship =
      *db.ValueOrDie().lineitem->GetTypedColumn<int32_t>("l_shipdate")
           .ValueOrDie();
  // Weak clustering: the column is far from sorted locally, but first and
  // last deciles must be widely separated in time.
  const size_t n = ship.size();
  double first_decile = 0, last_decile = 0;
  for (size_t i = 0; i < n / 10; ++i) first_decile += ship[i];
  for (size_t i = n - n / 10; i < n; ++i) last_decile += ship[i];
  first_decile /= static_cast<double>(n / 10);
  last_decile /= static_cast<double>(n / 10);
  EXPECT_GT(last_decile - first_decile, 1500.0);  // > ~4 years apart
}

// The generator always clusters dates; the random layout the benches use
// comes from re-laying the generated table out.
TEST(TpchGenTest, RandomLayoutDatesAreNotOrdered) {
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  Prng prng(7);
  ASSERT_TRUE(ApplyLayout(db.ValueOrDie().lineitem.get(), "l_shipdate",
                          Layout::kRandom, &prng)
                  .ok());
  const auto& ship =
      *db.ValueOrDie().lineitem->GetTypedColumn<int32_t>("l_shipdate")
           .ValueOrDie();
  const size_t n = ship.size();
  double first_decile = 0, last_decile = 0;
  for (size_t i = 0; i < n / 10; ++i) first_decile += ship[i];
  for (size_t i = n - n / 10; i < n; ++i) last_decile += ship[i];
  first_decile /= static_cast<double>(n / 10);
  last_decile /= static_cast<double>(n / 10);
  EXPECT_LT(std::abs(last_decile - first_decile), 200.0);
}

TEST(TpchGenTest, QuantityRoughlyUniform) {
  auto db = GenerateTpch(SmallConfig());
  ASSERT_TRUE(db.ok());
  const auto& quantity =
      *db.ValueOrDie().lineitem->GetTypedColumn<int32_t>("l_quantity")
           .ValueOrDie();
  size_t below_24 = 0;
  for (size_t i = 0; i < quantity.size(); ++i) {
    if (quantity[i] < 24) ++below_24;
  }
  // P(quantity < 24) = 23/50 = 0.46 for uniform 1..50.
  const double frac =
      static_cast<double>(below_24) / static_cast<double>(quantity.size());
  EXPECT_NEAR(frac, 0.46, 0.02);
}

TEST(TpchGenTest, RejectsNonPositiveScale) {
  TpchConfig cfg;
  cfg.scale_factor = 0.0;
  EXPECT_FALSE(GenerateTpch(cfg).ok());
  cfg.scale_factor = -1.0;
  EXPECT_FALSE(GenerateTpch(cfg).ok());
  cfg.scale_factor = 1e-9;  // rounds to zero tables
  EXPECT_FALSE(GenerateTpch(cfg).ok());
}

TEST(TpchGenTest, GenerateLineitemOnly) {
  auto li = GenerateLineitem(SmallConfig());
  ASSERT_TRUE(li.ok());
  EXPECT_GT(li.ValueOrDie()->num_rows(), 0u);
  EXPECT_EQ(li.ValueOrDie()->name(), "lineitem");
}

}  // namespace
}  // namespace nipo
