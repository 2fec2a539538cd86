/// \file probes.cc
/// Isolated per-layer probes: each times one layer's public function over
/// the workload's own lineitem columns, on the first kProbeRows rows, in
/// the executor's kSimBlockRows blocks. The columns are first decoded into
/// plain buffers (not timed), so every probe but the storage ones sees the
/// same bytes whether the table is plain or encoded.

#include <algorithm>
#include <cstring>
#include <set>

#include "bench.h"
#include "exec/simd.h"
#include "storage/column_view.h"
#include "storage/encoding.h"

namespace nipobench {

using namespace nipo;

namespace {

constexpr size_t kProbeRows = size_t{1} << 20;

struct ProbeColumn {
  ColumnView view;
  std::vector<uint8_t> bytes;  // decoded values, native width
};

Result<ProbeColumn> Materialize(const Engine& engine, const Table& fact,
                                const std::string& name, size_t rows) {
  NIPO_ASSIGN_OR_RETURN(const ColumnBase* col, fact.GetColumn(name));
  ProbeColumn out;
  NIPO_ASSIGN_OR_RETURN(out.view, ColumnView::Bind(col));
  const size_t width = out.view.value_width();
  out.bytes.resize(rows * width);
  Pmu pmu = engine.NewMachine();
  DecodeScratch scratch;
  ForEachSimBlock(0, rows, [&](size_t begin, size_t n) {
    const ScanRun run = out.view.ScanBlock(&pmu, begin, nullptr, n, &scratch);
    std::memcpy(out.bytes.data() + begin * width,
                run.data + run.base_row * width, n * width);
  });
  return out;
}

template <typename T>
std::unique_ptr<ColumnBase> PlainCopy(const ProbeColumn& c, size_t rows) {
  std::vector<T> values(rows);
  std::memcpy(values.data(), c.bytes.data(), rows * sizeof(T));
  return std::make_unique<Column<T>>(c.view.name(), std::move(values));
}

/// Gather booking of FK probes into a dimension of 8-byte values, with
/// the fact table's own keys as row ids. Only addresses are computed, so
/// the dimension array is allocated but never touched.
Result<double> GatherProbe(const Engine& engine, const Table& fact,
                           const std::string& fk, size_t rows) {
  NIPO_ASSIGN_OR_RETURN(ProbeColumn keys, Materialize(engine, fact, fk, rows));
  if (keys.view.type() != DataType::kInt32) {
    return Status::InvalidArgument(fk + " is not int32");
  }
  std::vector<uint32_t> rows_of(rows);
  int32_t max_key = 0;
  for (size_t i = 0; i < rows; ++i) {
    int32_t key = 0;
    std::memcpy(&key, keys.bytes.data() + i * 4, 4);
    max_key = std::max(max_key, key);
    rows_of[i] = static_cast<uint32_t>(std::max(key, 0));
  }
  std::unique_ptr<int64_t[]> dimension(
      new int64_t[static_cast<size_t>(max_key) + 1]);
  Pmu pmu = engine.NewMachine();
  const auto t0 = Clock::now();
  ForEachSimBlock(0, rows, [&](size_t begin, size_t n) {
    pmu.OnGatherLoads(dimension.get(), 8, rows_of.data() + begin, n);
  });
  return SecondsSince(t0) * 1e9 / static_cast<double>(rows);
}

}  // namespace

Result<ProbeResults> RunProbes(const Engine& engine,
                               const std::vector<QueryDef>& queries) {
  NIPO_ASSIGN_OR_RETURN(const Table* fact, engine.GetTable("lineitem"));
  const size_t rows = std::min(fact->num_rows(), kProbeRows);
  if (rows == 0) return Status::InvalidArgument("empty lineitem");

  // Distinct fact columns and predicates of the workload's queries.
  std::set<std::string> names;
  std::vector<PredicateSpec> predicates;
  for (const QueryDef& q : queries) {
    for (const OperatorSpec& op : q.spec.ops) {
      if (op.kind == OperatorSpec::Kind::kFkProbe) {
        names.insert(op.probe.fk_column);
        continue;
      }
      names.insert(op.predicate.column);
      const bool seen = std::any_of(
          predicates.begin(), predicates.end(), [&](const PredicateSpec& p) {
            return p.column == op.predicate.column && p.op == op.predicate.op &&
                   p.value == op.predicate.value;
          });
      if (!seen) predicates.push_back(op.predicate);
    }
    names.insert(q.spec.payload_columns.begin(), q.spec.payload_columns.end());
  }
  std::vector<ProbeColumn> columns;
  std::vector<std::string> column_names(names.begin(), names.end());
  for (const std::string& name : column_names) {
    NIPO_ASSIGN_OR_RETURN(ProbeColumn c,
                          Materialize(engine, *fact, name, rows));
    columns.push_back(std::move(c));
  }
  auto column_of = [&](const std::string& name) -> const ProbeColumn& {
    const auto it =
        std::find(column_names.begin(), column_names.end(), name);
    return columns[static_cast<size_t>(it - column_names.begin())];
  };

  ProbeResults out;
  const double values =
      static_cast<double>(rows) * static_cast<double>(columns.size());
  double seconds = 0;
  double bytes = 0;
  for (const ProbeColumn& c : columns) {
    bytes += c.view.scan_bytes_per_value();
    Pmu pmu = engine.NewMachine();
    DecodeScratch scratch;
    const auto t0 = Clock::now();
    ForEachSimBlock(0, rows, [&](size_t begin, size_t n) {
      c.view.ScanBlock(&pmu, begin, nullptr, n, &scratch);
    });
    seconds += SecondsSince(t0);
  }
  out.scan_ns_per_value = seconds * 1e9 / values;
  out.encoded_bytes_per_value = bytes / static_cast<double>(columns.size());

  seconds = 0;
  for (const ProbeColumn& c : columns) {
    std::unique_ptr<ColumnBase> plain;
    switch (c.view.type()) {
      case DataType::kInt32:
        plain = PlainCopy<int32_t>(c, rows);
        break;
      case DataType::kInt64:
        plain = PlainCopy<int64_t>(c, rows);
        break;
      case DataType::kDouble:
        plain = PlainCopy<double>(c, rows);
        break;
    }
    const auto t0 = Clock::now();
    auto encoded = EncodedColumn::Encode(*plain);
    seconds += SecondsSince(t0);
    NIPO_RETURN_NOT_OK(encoded.status());
  }
  out.encode_ns_per_value = seconds * 1e9 / values;

  seconds = 0;
  for (const ProbeColumn& c : columns) {
    Pmu pmu = engine.NewMachine();
    const uint32_t width = c.view.value_width();
    const auto t0 = Clock::now();
    ForEachSimBlock(0, rows, [&](size_t begin, size_t n) {
      pmu.OnSequentialLoads(c.bytes.data() + begin * width, width, n);
    });
    seconds += SecondsSince(t0);
  }
  out.sequential_loads_ns_per_value = seconds * 1e9 / values;

  // Selection kernel, then branch booking fed its pass flags.
  const double predicate_values =
      static_cast<double>(rows) * static_cast<double>(predicates.size());
  double compare_s = 0, branch_s = 0;
  std::vector<uint8_t> pass(rows);
  std::vector<uint32_t> sel(kSimBlockRows);
  for (const PredicateSpec& p : predicates) {
    const ProbeColumn& c = column_of(p.column);
    auto t0 = Clock::now();
    ForEachSimBlock(0, rows, [&](size_t begin, size_t n) {
      simd::CompareSelect(c.view.type(), c.bytes.data(), begin, p.op, p.value,
                          nullptr, nullptr, n, pass.data() + begin,
                          sel.data());
    });
    compare_s += SecondsSince(t0);
    Pmu pmu = engine.NewMachine();
    pmu.EnsureBranchSites(1);
    t0 = Clock::now();
    ForEachSimBlock(0, rows, [&](size_t begin, size_t n) {
      pmu.OnPredicateBranches(0, pass.data() + begin, n);
    });
    branch_s += SecondsSince(t0);
  }
  out.compare_select_ns_per_value = compare_s * 1e9 / predicate_values;
  out.predicate_branches_ns_per_value = branch_s * 1e9 / predicate_values;

  NIPO_ASSIGN_OR_RETURN(out.gather_orders_ns_per_probe,
                        GatherProbe(engine, *fact, "l_orderkey", rows));
  NIPO_ASSIGN_OR_RETURN(out.gather_part_ns_per_probe,
                        GatherProbe(engine, *fact, "l_partkey", rows));
  return out;
}

}  // namespace nipobench
