/// \file workload_throughput.cc
/// Multi-query workload throughput (DESIGN.md "Workload execution"): a
/// mixed queue of Q6-shaped scans, FK-probe joins and SUM aggregates over
/// a shared TPC-H database, executed through Engine::Execute(WorkloadSpec)
/// while admission control widens from 1 (fully serial) to 8 in-flight
/// queries on 4 simulated cores.
///
/// The headline is *simulated* queries/sec from the driver's
/// deterministic event loop, so the numbers are free of host-timing
/// noise; host wall-clock of the loop (one host thread, whatever the
/// simulated core count) is reported alongside. Two gates make the sweep
/// trustworthy: every query's counters must be bit-identical across all
/// admission configurations, and the widest configuration must actually
/// improve aggregate throughput over the serial one.
///
/// Run with `--json` (ci/check.sh does, in --quick smoke form) to write
/// BENCH_workload_throughput.json for the perf trajectory
/// (EXPERIMENTS.md "Perf trajectory").

#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/report.h"

namespace {

using namespace nipo;
using namespace nipo::bench;

/// Median of an int64 column, as the probe filter threshold.
double Median64(const Table& table, const std::string& column) {
  const auto& c = *table.GetTypedColumn<int64_t>(column).ValueOrDie();
  std::vector<int64_t> sorted(c.values().begin(), c.values().end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<double>(sorted[sorted.size() / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_workload_throughput.json", &json_path);

  // ~120k lineitems (30k under --quick) + orders + part, shared by every
  // query of the workload.
  TpchConfig cfg;
  cfg.scale_factor = quick ? 0.005 : 0.02;
  Engine engine(HwConfig::ScaledXeon(16));
  auto db = GenerateTpch(cfg);
  NIPO_CHECK(db.ok());
  const Table* orders = db.ValueOrDie().orders.get();
  const Table* part = db.ValueOrDie().part.get();
  const double orders_median = Median64(*orders, "o_totalprice");
  const double part_median = Median64(*part, "p_retailprice");
  const uint64_t rows = db.ValueOrDie().lineitem->num_rows();
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().lineitem)).ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().orders)).ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().part)).ok());
  const Table& lineitem = *engine.GetTable("lineitem").ValueOrDie();

  // The mixed queue: full Q6, intro-Q6 scans across the selectivity
  // range, and joins probing the co-clustered (orders) and random (part)
  // dimensions — each as fixed-order baseline and, where reordering has
  // room to help, progressive. 12 queries total.
  WorkloadSpec spec;
  auto add = [&spec](std::string name, QuerySpec query, bool progressive) {
    WorkloadQuery q;
    q.name = std::move(name);
    q.query = std::move(query);
    q.progressive = progressive;
    q.config.vector_size = 4'096;
    q.config.reopt_interval = 5;
    spec.queries.push_back(std::move(q));
  };
  {
    QuerySpec q6;
    q6.table = "lineitem";
    q6.ops = MakeQ6FullPredicates();
    q6.payload_columns = Q6PayloadColumns();
    add("q6_full_base", q6, false);
    add("q6_full_prog", q6, true);
    for (const double sel : {1e-3, 1e-2, 0.5}) {
      QuerySpec intro;
      intro.table = "lineitem";
      intro.ops = MakeQ6IntroPredicates(
          ValueForSelectivity(lineitem, "l_shipdate", sel).ValueOrDie());
      intro.payload_columns = Q6PayloadColumns();
      add("q6_intro_" + PercentLabel(sel) + "_base", intro, false);
      add("q6_intro_" + PercentLabel(sel) + "_prog", intro, true);
    }
    QuerySpec join;
    join.table = "lineitem";
    join.ops = {
        OperatorSpec::Predicate({"l_quantity", CompareOp::kLe, 25.0}),
        OperatorSpec::FkProbe({"l_orderkey", orders, "o_totalprice",
                               CompareOp::kLe, orders_median}),
    };
    join.payload_columns = {"l_extendedprice"};
    add("join_orders_base", join, false);
    add("join_orders_prog", join, true);
    QuerySpec two_probe;
    two_probe.table = "lineitem";
    two_probe.ops = {
        OperatorSpec::FkProbe({"l_orderkey", orders, "o_totalprice",
                               CompareOp::kLe, orders_median}),
        OperatorSpec::FkProbe({"l_partkey", part, "p_retailprice",
                               CompareOp::kLe, part_median}),
    };
    two_probe.payload_columns = {"l_extendedprice"};
    add("join_two_probe_base", two_probe, false);
    add("join_two_probe_prog", two_probe, true);
  }
  const size_t num_queries = spec.queries.size();

  spec.options.num_threads = 4;
  const std::vector<size_t> concurrency = {1, 2, 4, 8};

  TablePrinter table("Workload throughput, " + std::to_string(num_queries) +
                     " mixed queries over " + std::to_string(rows) +
                     " lineitems, 4 simulated cores");
  table.SetHeader({"max concurrent", "peak in flight", "sim makespan msec",
                   "sim queries/s", "speedup", "wall msec"});

  struct ConfigResult {
    size_t max_concurrent = 0;
    WorkloadReport report;
  };
  std::vector<ConfigResult> results;
  for (const size_t max_concurrent : concurrency) {
    spec.options.max_concurrent = max_concurrent;
    auto r = engine.Execute(spec);
    NIPO_CHECK(r.ok());
    results.push_back({max_concurrent, std::move(r.ValueOrDie())});
  }

  // Correctness gate: private machines make every query's counters and
  // results independent of the admission schedule (and equal to a
  // solo single-threaded run; tests/workload_driver_test.cc proves that
  // equivalence, the sweep here proves the independence).
  const WorkloadReport& serial = results.front().report;
  for (const ConfigResult& config : results) {
    for (size_t i = 0; i < num_queries; ++i) {
      NIPO_CHECK(config.report.queries[i].drive.total ==
                 serial.queries[i].drive.total);
      NIPO_CHECK(config.report.queries[i].drive.aggregate ==
                 serial.queries[i].drive.aggregate);
      NIPO_CHECK(config.report.queries[i].drive.qualifying_tuples ==
                 serial.queries[i].drive.qualifying_tuples);
    }
  }

  for (const ConfigResult& config : results) {
    const WorkloadReport& r = config.report;
    table.AddRow({std::to_string(config.max_concurrent),
                  std::to_string(r.peak_in_flight),
                  FormatDouble(r.sim_makespan_msec, 3),
                  FormatDouble(r.sim_queries_per_sec, 1),
                  FormatDouble(serial.sim_makespan_msec / r.sim_makespan_msec,
                               2) +
                      "x",
                  FormatDouble(r.wall_msec, 1)});
  }
  table.Print(std::cout);
  std::cout << "counters: bit-identical across all admission configs\n";

  // Throughput gate: widening admission onto the 4 simulated cores must
  // beat the serialized schedule on aggregate simulated queries/sec.
  const WorkloadReport& widest = results.back().report;
  NIPO_CHECK(widest.sim_queries_per_sec > 1.5 * serial.sim_queries_per_sec);

  if (write_json) {
    JsonValue configs = JsonValue::Array();
    for (const ConfigResult& config : results) {
      const WorkloadReport& r = config.report;
      configs.Push(JsonValue::Object()
                       .Add("name",
                            "mc" + std::to_string(config.max_concurrent))
                       .Add("max_concurrent",
                            static_cast<uint64_t>(config.max_concurrent))
                       .Add("peak_in_flight",
                            static_cast<uint64_t>(r.peak_in_flight))
                       .Add("sim_makespan_msec", r.sim_makespan_msec)
                       .Add("sim_queries_per_sec", r.sim_queries_per_sec)
                       .Add("sim_serial_msec", r.sim_serial_msec)
                       .Add("wall_msec", r.wall_msec));
    }
    WriteJsonArtifact(
        json_path,
        JsonValue::Object()
            .Add("bench", "workload_throughput")
            .Add("quick", quick)
            .Add("host", HostMetadata())
            .Add("rows", rows)
            .Add("num_queries", static_cast<uint64_t>(num_queries))
            .Add("num_threads", static_cast<uint64_t>(spec.options.num_threads))
            .Add("counters_identical", true)
            .Add("configs", configs));
  }
  return 0;
}
