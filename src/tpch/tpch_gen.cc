#include "tpch/tpch_gen.h"

#include <algorithm>
#include <string>

/// \file tpch_gen.cc
/// Scaled deterministic lineitem generation: per-order orderdate/lineitem
/// structure, TPC-H value distributions for the columns the experiments
/// read, and assembly into a registered-ready Table.

namespace nipo {

namespace {

struct OrderDraft {
  int32_t orderdate = 0;
  uint32_t num_lineitems = 1;
};

/// Draws the per-order structure: the orderdate schedule and lineitem
/// counts. Orderdates increase monotonically across the table (bulk-load
/// order) with small jitter: weak clustering on dates. Lineitems per
/// order are uniform 1..7 (dbgen's distribution), giving the canonical
/// 4:1 lineitem:order ratio on average.
std::vector<OrderDraft> DraftOrders(const TpchConfig& config, Prng* prng) {
  const uint64_t n = config.num_orders();
  const int32_t start = TpchStartDay();
  // Leave 121 days of room so shipdate = orderdate + 1..121 stays inside
  // the canonical window.
  const int32_t end = TpchEndDay() - 121;
  const int64_t span = end - start;
  std::vector<OrderDraft> drafts(n);
  for (uint64_t i = 0; i < n; ++i) {
    OrderDraft& d = drafts[i];
    // Evenly spaced base date plus small jitter: monotone overall trend
    // with local disorder, i.e. *weak* clustering.
    const int64_t base =
        start + span * static_cast<int64_t>(i) / std::max<int64_t>(1, n - 1);
    const int64_t jitter = prng->NextInRange(-15, 15);
    d.orderdate =
        static_cast<int32_t>(std::clamp<int64_t>(base + jitter, start, end));
    d.num_lineitems = static_cast<uint32_t>(prng->NextInRange(1, 7));
  }
  return drafts;
}

}  // namespace

Result<TpchDatabase> GenerateTpch(const TpchConfig& config) {
  if (config.scale_factor <= 0) {
    return Status::InvalidArgument("scale_factor must be positive");
  }
  const uint64_t num_orders = config.num_orders();
  const uint64_t num_parts = config.num_parts();
  if (num_orders == 0 || num_parts == 0) {
    return Status::InvalidArgument("scale_factor too small: empty tables");
  }
  // Keys are dense int32 surrogate row ids (the positional FK probe's
  // contract), so the parent tables must fit the key space -- and the
  // worst-case 7 lineitems per order must fit size_t row counts.
  constexpr uint64_t kMaxKey = 0x7fffffff;  // INT32_MAX
  if (num_orders > kMaxKey || num_parts > kMaxKey) {
    return Status::OutOfRange(
        "scale_factor overflows the int32 FK key space (num_orders=" +
        std::to_string(num_orders) + ", num_parts=" +
        std::to_string(num_parts) + ")");
  }

  // One stream draws every table, in order: the order drafts, part, then
  // orders and lineitem together.
  Prng prng(config.seed);
  const std::vector<OrderDraft> drafts = DraftOrders(config, &prng);

  // --- part ---
  std::vector<int64_t> p_retailprice(num_parts);
  std::vector<int32_t> p_size(num_parts);
  for (uint64_t i = 0; i < num_parts; ++i) {
    // dbgen: retail price ~ 90000 + (key/10) % 20001 + 100 * (key % 1000),
    // here a uniform price in [900.00, 2100.00] dollars keeps the same
    // range without the arithmetic quirks.
    p_retailprice[i] = prng.NextInRange(90'000, 210'000);
    p_size[i] = static_cast<int32_t>(prng.NextInRange(1, 50));
  }

  // --- orders + lineitem ---
  uint64_t num_lineitems = 0;
  for (const OrderDraft& d : drafts) num_lineitems += d.num_lineitems;

  std::vector<int32_t> o_orderdate(num_orders);
  std::vector<int64_t> o_totalprice(num_orders);
  std::vector<int32_t> o_shippriority(num_orders);

  std::vector<int32_t> l_orderkey, l_partkey, l_quantity, l_discount, l_tax,
      l_shipdate, l_returnflag, l_linestatus;
  std::vector<int64_t> l_extendedprice;
  l_orderkey.reserve(num_lineitems);
  l_partkey.reserve(num_lineitems);
  l_quantity.reserve(num_lineitems);
  l_discount.reserve(num_lineitems);
  l_tax.reserve(num_lineitems);
  l_shipdate.reserve(num_lineitems);
  l_returnflag.reserve(num_lineitems);
  l_linestatus.reserve(num_lineitems);
  l_extendedprice.reserve(num_lineitems);

  for (uint64_t o = 0; o < num_orders; ++o) {
    const OrderDraft& d = drafts[o];
    o_orderdate[o] = d.orderdate;
    o_shippriority[o] = static_cast<int32_t>(prng.NextInRange(0, 4));
    int64_t total = 0;
    for (uint32_t li = 0; li < d.num_lineitems; ++li) {
      const int32_t partkey = static_cast<int32_t>(
          prng.NextBounded(num_parts));
      const int32_t quantity =
          static_cast<int32_t>(prng.NextInRange(1, 50));
      const int64_t extendedprice =
          static_cast<int64_t>(quantity) * p_retailprice[partkey] / 10;
      const int32_t discount =
          static_cast<int32_t>(prng.NextInRange(0, 10));
      const int32_t tax = static_cast<int32_t>(prng.NextInRange(0, 8));
      const int32_t shipdate =
          d.orderdate + static_cast<int32_t>(prng.NextInRange(1, 121));
      l_orderkey.push_back(static_cast<int32_t>(o));
      l_partkey.push_back(partkey);
      l_quantity.push_back(quantity);
      l_extendedprice.push_back(extendedprice);
      l_discount.push_back(discount);
      l_tax.push_back(tax);
      l_shipdate.push_back(shipdate);
      // dbgen semantics around the 1995-06-17 "current date": items
      // received by then carry R or A (returned / accepted), later ones
      // N; linestatus is F (fulfilled) up to that date, O (open) after.
      const int32_t current_date = DateToDayNumber(Date{1995, 6, 17});
      const int32_t receiptdate =
          shipdate + static_cast<int32_t>(prng.NextInRange(1, 30));
      if (receiptdate <= current_date) {
        l_returnflag.push_back(prng.NextBool(0.5) ? 2 : 0);  // R : A
      } else {
        l_returnflag.push_back(1);  // N
      }
      l_linestatus.push_back(shipdate > current_date ? 1 : 0);  // O : F
      total += extendedprice;
    }
    o_totalprice[o] = total;
  }

  TpchDatabase db;
  db.part = std::make_unique<Table>("part");
  NIPO_RETURN_NOT_OK(db.part->AddColumn("p_retailprice",
                                        std::move(p_retailprice)));
  NIPO_RETURN_NOT_OK(db.part->AddColumn("p_size", std::move(p_size)));

  db.orders = std::make_unique<Table>("orders");
  NIPO_RETURN_NOT_OK(db.orders->AddColumn("o_orderdate",
                                          std::move(o_orderdate)));
  NIPO_RETURN_NOT_OK(db.orders->AddColumn("o_totalprice",
                                          std::move(o_totalprice)));
  NIPO_RETURN_NOT_OK(db.orders->AddColumn("o_shippriority",
                                          std::move(o_shippriority)));

  db.lineitem = std::make_unique<Table>("lineitem");
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_orderkey",
                                            std::move(l_orderkey)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_partkey",
                                            std::move(l_partkey)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_quantity",
                                            std::move(l_quantity)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_extendedprice",
                                            std::move(l_extendedprice)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_discount",
                                            std::move(l_discount)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_tax", std::move(l_tax)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_shipdate",
                                            std::move(l_shipdate)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_returnflag",
                                            std::move(l_returnflag)));
  NIPO_RETURN_NOT_OK(db.lineitem->AddColumn("l_linestatus",
                                            std::move(l_linestatus)));
  return db;
}

Result<std::unique_ptr<Table>> GenerateLineitem(const TpchConfig& config) {
  NIPO_ASSIGN_OR_RETURN(TpchDatabase db, GenerateTpch(config));
  return std::move(db.lineitem);
}

}  // namespace nipo
