#pragma once

#include <cstdint>
#include <memory>

#include "common/date.h"
#include "common/prng.h"
#include "storage/table.h"

/// \file tpch_gen.h
/// Deterministic TPC-H-style data generator (the paper's data substrate).
///
/// The paper evaluates on dbgen output at scale factor 100 (~600 M
/// lineitems). This generator reproduces the *value distributions* the
/// experiments depend on, at configurable scale:
///
///  - l_quantity: uniform integers 1..50,
///  - l_discount: uniform hundredths 0..10 (0.00..0.10),
///  - l_tax: uniform hundredths 0..8,
///  - l_extendedprice: quantity * a part-dependent price, stored in cents,
///  - l_shipdate: orderdate + uniform 1..121 days,
///  - o_orderdate: spread over 1992-01-01 .. 1998-12-31.
///
/// Two layout properties matter to the paper and are reproduced exactly:
///
///  1. *Bulk-load weak clustering*: orders are generated with
///     non-decreasing orderdate, so lineitem, written in order of its
///     parent order, is weakly clustered on shipdate (Section 1: "real
///     life databases are bulk loaded and, hence, weakly clustered on the
///     date column").
///  2. *Co-clustering of lineitem and orders*: l_orderkey is the dense,
///     non-decreasing row id of the parent order, so an FK probe into
///     orders is near-sequential, while l_partkey is uniform, so a probe
///     into part is random (Section 5.6).
///
/// Keys are dense surrogate row ids (0-based), which the executor's
/// positional FK probe requires.

namespace nipo {

/// \brief Generator configuration. scale_factor 1.0 corresponds to 6M
/// lineitems / 1.5M orders / 200K parts (the dbgen ratios).
struct TpchConfig {
  double scale_factor = 0.1;
  uint64_t seed = 42;

  uint64_t num_orders() const {
    return static_cast<uint64_t>(scale_factor * 1'500'000);
  }
  uint64_t num_parts() const {
    return static_cast<uint64_t>(scale_factor * 200'000);
  }
};

/// \brief The generated database: lineitem + its two dimension tables.
struct TpchDatabase {
  std::unique_ptr<Table> lineitem;
  std::unique_ptr<Table> orders;
  std::unique_ptr<Table> part;
};

/// \brief Generates all three tables. Deterministic in (config.seed,
/// scale). Lineitem columns: l_orderkey (int32), l_partkey (int32),
/// l_quantity (int32), l_extendedprice (int64, cents), l_discount (int32,
/// hundredths), l_tax (int32, hundredths), l_shipdate (int32, day number).
/// Orders columns: o_orderdate (int32 day number), o_totalprice (int64
/// cents), o_shippriority (int32 0..4). Part columns: p_retailprice
/// (int64 cents), p_size (int32 1..50).
Result<TpchDatabase> GenerateTpch(const TpchConfig& config);

/// \brief Generates only lineitem (cheaper when no joins are needed).
Result<std::unique_ptr<Table>> GenerateLineitem(const TpchConfig& config);

}  // namespace nipo
