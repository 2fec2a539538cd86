/// \file workload_contention.cc
/// Shared-L3 contention and contention-aware co-scheduling (DESIGN.md
/// Section 6 "Shared-cache contention"): a mixed 12-query workload — two
/// L3-thrashing FK-probe joins whose probed dimensions each claim ~70% of
/// the shared L3, two medium scans, six small scans, and two small joins
/// — executed three ways on a 2-worker pool with 2 admission slots:
///
///   off_fifo      interference-free PR-4 execution (the speedup anchor);
///   on_fifo       shared-L3 contention on, FIFO admission — spec order
///                 co-schedules the two thrashers, whose dimensions do
///                 not fit the L3 together, so both queries' probe misses
///                 (and the makespan) inflate;
///   on_footprint  contention on, footprint-aware admission — the
///                 cost-model footprints keep the thrashers apart (each
///                 pairs with a small/medium query instead) at identical
///                 concurrency, recovering most of the loss.
///
/// Three NIPO_CHECK gates make the comparison trustworthy: every query's
/// results are identical across all three configurations, contention
/// shrinks the interference-free speedup (on_fifo below off_fifo against
/// the same solo-serial anchor), and footprint-aware co-scheduling beats
/// FIFO under contention. All headline numbers are simulated; the gates
/// compare configurations within one process, where counts are exact
/// (across processes allocator placement moves them ~0.1% — see
/// docs/COUNTERS.md "Determinism").
///
/// Run with `--json` (ci/check.sh does, in --quick smoke form) to write
/// BENCH_workload_contention.json for the perf trajectory
/// (EXPERIMENTS.md "Contention").

#include <iostream>

#include "bench_util.h"
#include "common/prng.h"
#include "core/report.h"

namespace {

using namespace nipo;
using namespace nipo::bench;

std::unique_ptr<Table> MakeFact(const std::string& name, size_t n,
                                uint64_t seed, size_t fk_domain) {
  Prng prng(seed);
  std::vector<int32_t> a(n), b(n), fk(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(fk_domain));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  NIPO_CHECK(t->AddColumn("a", std::move(a)).ok());
  NIPO_CHECK(t->AddColumn("b", std::move(b)).ok());
  NIPO_CHECK(t->AddColumn("fk", std::move(fk)).ok());
  NIPO_CHECK(t->AddColumn("payload", std::move(payload)).ok());
  return t;
}

std::unique_ptr<Table> MakeDim(const std::string& name, size_t n,
                               uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> attr(n);
  for (auto& v : attr) v = static_cast<int32_t>(prng.NextBounded(100));
  auto t = std::make_unique<Table>(name);
  NIPO_CHECK(t->AddColumn("attr", std::move(attr)).ok());
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--verbose") verbose = true;
  }
  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_workload_contention.json", &json_path);

  // Sizes are ratios of the shared L3 (960 KB full, 480 KB quick — the
  // data, the caches, and the vector size all shrink together, like every
  // experiment here). Thrasher dimensions: ~70% of L3 each, so either
  // fits solo but the pair cannot co-reside and mutually evicts in steady
  // state; each thrasher probes its dimension three times per row, so the
  // contention penalty is probe-dominated — every dimension line a
  // co-runner steals turns a ~L3-hit probe into a memory access. The
  // thrasher claim (fk stream + dimension reuse, ~79%) leaves a ~200 KB
  // budget that still fits every non-thrasher (~12-20% each), so the
  // footprint policy can always pair a thrasher with a non-thrasher. The
  // non-thrashers add up to more work than the two thrashers take back to
  // back, so keeping the thrashers apart costs no concurrency.
  const size_t scale = quick ? 2 : 1;
  Engine engine(HwConfig::ScaledXeon(quick ? 32 : 16));
  const size_t thrash_rows = 18'000 / scale;
  const size_t thrash_dim_rows = 168'000 / scale;  // ~672 KB of int32
  const size_t medium_rows = 24'000 / scale;
  const size_t small_rows = 14'000 / scale;
  const size_t small_dim_rows = 16'000 / scale;
  NIPO_CHECK(engine
                 .RegisterTable(
                     MakeFact("thrash_a", thrash_rows, 1, thrash_dim_rows))
                 .ok());
  NIPO_CHECK(engine
                 .RegisterTable(
                     MakeFact("thrash_b", thrash_rows, 2, thrash_dim_rows))
                 .ok());
  NIPO_CHECK(engine.RegisterTable(MakeDim("dim_a", thrash_dim_rows, 3)).ok());
  NIPO_CHECK(engine.RegisterTable(MakeDim("dim_b", thrash_dim_rows, 4)).ok());
  NIPO_CHECK(
      engine.RegisterTable(MakeFact("medium", medium_rows, 5, small_dim_rows))
          .ok());
  NIPO_CHECK(
      engine.RegisterTable(MakeFact("small", small_rows, 6, small_dim_rows))
          .ok());
  NIPO_CHECK(
      engine.RegisterTable(MakeDim("dim_small", small_dim_rows, 7)).ok());

  // The mixed 12-query queue. FIFO admits in spec order, so the two
  // thrashers — first in the queue — land in the same admission window.
  WorkloadSpec spec;
  auto add = [&spec, scale](std::string name, QuerySpec query,
                            bool progressive) {
    WorkloadQuery q;
    q.name = std::move(name);
    q.query = std::move(query);
    q.progressive = progressive;
    q.config.vector_size = 2'048 / scale;
    q.config.reopt_interval = 5;
    spec.queries.push_back(std::move(q));
  };
  for (const auto& [fact, dim] :
       {std::pair<std::string, std::string>{"thrash_a", "dim_a"},
        {"thrash_b", "dim_b"}}) {
    QuerySpec join;
    join.table = fact;
    const Table* dim_table = engine.GetTable(dim).ValueOrDie();
    join.ops = {
        OperatorSpec::FkProbe({"fk", dim_table, "attr", CompareOp::kLt, 95.0}),
        OperatorSpec::FkProbe({"fk", dim_table, "attr", CompareOp::kLt, 70.0}),
        OperatorSpec::FkProbe({"fk", dim_table, "attr", CompareOp::kLt, 45.0})};
    add(fact, join, false);
  }
  for (int i = 0; i < 2; ++i) {
    QuerySpec scan;
    scan.table = "medium";
    scan.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 95.0}),
                OperatorSpec::Predicate({"b", CompareOp::kLt, 90.0}),
                OperatorSpec::Predicate({"a", CompareOp::kLt, 85.0}),
                OperatorSpec::Predicate({"b", CompareOp::kLt, 80.0}),
                OperatorSpec::Predicate({"a", CompareOp::kLt, 70.0}),
                OperatorSpec::Predicate({"b", CompareOp::kLt, 60.0})};
    add("medium_" + std::to_string(i), scan, i == 1);
  }
  for (int i = 0; i < 6; ++i) {
    QuerySpec scan;
    scan.table = "small";
    scan.ops = {
        OperatorSpec::Predicate({"a", CompareOp::kLt, 95.0}),
        OperatorSpec::Predicate({"b", CompareOp::kLt, 90.0}),
        OperatorSpec::Predicate({"a", CompareOp::kLt, 90.0 - 10.0 * i}),
        OperatorSpec::Predicate({"b", CompareOp::kLt, 5.0 + 10.0 * i})};
    add("small_" + std::to_string(i), scan, i % 2 == 1);
  }
  for (int i = 0; i < 2; ++i) {
    QuerySpec join;
    join.table = "small";
    const Table* dim_small = engine.GetTable("dim_small").ValueOrDie();
    join.ops = {
        OperatorSpec::Predicate({"a", CompareOp::kLt, 60.0}),
        OperatorSpec::FkProbe({"fk", dim_small, "attr", CompareOp::kLt, 80.0}),
        OperatorSpec::FkProbe({"fk", dim_small, "attr", CompareOp::kLt, 55.0}),
        OperatorSpec::FkProbe({"fk", dim_small, "attr", CompareOp::kLt, 30.0})};
    add("small_join_" + std::to_string(i), join, false);
  }
  const size_t num_queries = spec.queries.size();
  NIPO_CHECK(num_queries == 12);

  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;

  struct Config {
    std::string name;
    bool contention = false;
    SchedulePolicy policy = SchedulePolicy::kFifo;
  };
  const std::vector<Config> configs = {
      {"off_fifo", false, SchedulePolicy::kFifo},
      {"on_fifo", true, SchedulePolicy::kFifo},
      {"on_footprint", true, SchedulePolicy::kFootprintAware},
  };
  std::vector<WorkloadReport> reports;
  for (const Config& config : configs) {
    spec.options.contention = config.contention;
    spec.options.policy = config.policy;
    // Best-of-2 (the sim_throughput warmup pattern): the simulated
    // headline numbers are deterministic — the helper asserts so — and
    // the wall-clock figures keep the warmed run.
    reports.push_back(ExecuteWorkloadBestOf2(engine, spec));
  }
  const WorkloadReport& off = reports[0];
  const WorkloadReport& on_fifo = reports[1];
  const WorkloadReport& on_fp = reports[2];

  // Gate 1: query results are machine-state independent — identical
  // across interference and policy.
  for (const WorkloadReport& r : reports) {
    for (size_t i = 0; i < num_queries; ++i) {
      NIPO_CHECK(r.queries[i].drive.qualifying_tuples ==
                 off.queries[i].drive.qualifying_tuples);
      NIPO_CHECK(r.queries[i].drive.aggregate ==
                 off.queries[i].drive.aggregate);
    }
  }

  const double serial_anchor = off.sim_serial_msec;
  auto speedup = [&](const WorkloadReport& r) {
    return serial_anchor / r.sim_makespan_msec;
  };

  TablePrinter table("Workload contention, " + std::to_string(num_queries) +
                     " mixed queries, 2 workers, 2 admission slots");
  table.SetHeader({"config", "sim makespan msec", "speedup vs solo serial",
                   "L3 evictions suffered", "L3 lines displaced"});
  std::vector<uint64_t> suffered(reports.size(), 0);
  for (size_t c = 0; c < reports.size(); ++c) {
    for (const WorkloadQueryReport& q : reports[c].queries) {
      suffered[c] += q.drive.total.l3_evictions_suffered;
    }
    table.AddRow({configs[c].name,
                  FormatDouble(reports[c].sim_makespan_msec, 3),
                  FormatDouble(speedup(reports[c]), 2) + "x",
                  std::to_string(suffered[c]),
                  std::to_string(reports[c].shared_l3_lines_displaced)});
  }
  table.Print(std::cout);
  if (verbose) {
    for (size_t c = 0; c < reports.size(); ++c) {
      TablePrinter per_query("per-query: " + configs[c].name);
      per_query.SetHeader({"query", "sim msec", "start", "finish", "l3 miss",
                           "evict suffered", "occ peak"});
      for (const WorkloadQueryReport& q : reports[c].queries) {
        per_query.AddRow(
            {q.name, FormatDouble(q.drive.simulated_msec, 3),
             FormatDouble(q.sim_start_msec, 3),
             FormatDouble(q.sim_finish_msec, 3),
             std::to_string(q.drive.total.l3_misses),
             std::to_string(q.drive.total.l3_evictions_suffered),
             std::to_string(q.shared_l3_peak_occupancy_lines)});
      }
      per_query.Print(std::cout);
    }
  }
  const double recovered =
      (on_fifo.sim_makespan_msec - on_fp.sim_makespan_msec) /
      (on_fifo.sim_makespan_msec - off.sim_makespan_msec);
  std::cout << "contention cost (fifo): "
            << FormatDouble(
                   on_fifo.sim_makespan_msec / off.sim_makespan_msec, 2)
            << "x makespan; footprint-aware recovers "
            << FormatDouble(100.0 * recovered, 1) << "% of the loss\n";

  // Gate 2: contention must shrink the interference-free speedup (the
  // PR-4 workload headline, measured against the same solo-serial
  // anchor).
  NIPO_CHECK(speedup(on_fifo) < speedup(off));
  // Gate 3: footprint-aware admission must beat FIFO under contention.
  NIPO_CHECK(on_fp.sim_makespan_msec < on_fifo.sim_makespan_msec);

  if (write_json) {
    JsonValue out_configs = JsonValue::Array();
    for (size_t c = 0; c < reports.size(); ++c) {
      const WorkloadReport& r = reports[c];
      out_configs.Push(
          JsonValue::Object()
              .Add("name", configs[c].name)
              .Add("wall_msec", r.wall_msec)
              .Add("sim_makespan_msec", r.sim_makespan_msec)
              .Add("sim_queries_per_sec", r.sim_queries_per_sec)
              .Add("speedup_vs_solo_serial", speedup(r))
              .Add("l3_evictions_suffered", suffered[c])
              .Add("l3_lines_displaced", r.shared_l3_lines_displaced));
    }
    WriteJsonArtifact(
        json_path,
        JsonValue::Object()
            .Add("bench", "workload_contention")
            .Add("quick", quick)
            .Add("host", HostMetadata())
            .Add("num_queries", static_cast<uint64_t>(num_queries))
            .Add("num_threads", static_cast<uint64_t>(spec.options.num_threads))
            .Add("max_concurrent",
                 static_cast<uint64_t>(spec.options.max_concurrent))
            .Add("results_identical", true)
            .Add("fraction_recovered_by_footprint", recovered)
            .Add("configs", out_configs));
  }
  return 0;
}
