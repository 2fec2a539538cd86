/// \file sim_throughput.cc
/// Simulator throughput bench: host wall-clock tuples/sec of the PMU
/// simulation on Q6-shaped pipelines and random FK probes, batched vs
/// scalar event reporting
/// (DESIGN.md "Batched simulation"), with the counter-invariance
/// correctness gate enforced on every configuration.
///
/// This is the perf-trajectory anchor for the simulation layer: run with
/// `--json` (ci/check.sh does) to write BENCH_sim_throughput.json, so
/// wall-clock regressions of the simulator itself become visible across
/// PRs (EXPERIMENTS.md "Perf trajectory"). `--quick` shrinks the workload
/// to CI-smoke size.
///
/// The batched numbers are the ones that matter for future capacity
/// (they bound how much workload every figure bench and driver can
/// afford); the scalar run exists as the differential baseline and to
/// report the batching speedup on this machine.

#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>

#include "bench_util.h"

namespace {

using namespace nipo;
using namespace nipo::bench;

double WallMsec(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

struct ConfigResult {
  std::string name;
  uint64_t rows = 0;
  double wall_msec_batched = 0;
  double wall_msec_scalar = 0;
  double tuples_per_sec_batched = 0;
  double speedup = 0;
  double simulated_msec = 0;
  bool counters_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_sim_throughput.json", &json_path);

  // ~300k lineitems (60k under --quick): big enough that per-tuple
  // simulation cost dominates, small enough for a CI smoke step.
  const double scale_factor = quick ? 0.01 : 0.05;
  // Best-of-2 even in quick mode: the first iteration absorbs process
  // warmup (page faults, heap growth), which best-of-1 would hand to the
  // perf gate as noise.
  const int reps = quick ? 2 : 3;
  const size_t kVectorSize = 8'192;
  Engine engine = MakeQ6Engine(scale_factor, Layout::kClustered);
  const Table& lineitem =
      *engine.GetTable("lineitem").ValueOrDie();
  const uint64_t rows = lineitem.num_rows();

  // Q6-shaped configurations: the full five-predicate Q6 plus intro-Q6
  // single-predicate scans across the selectivity range (the regimes the
  // figure benches sweep), and one FK-probe pipeline over as many rows.
  struct Config {
    std::string name;
    QuerySpec query;
  };
  std::vector<Config> configs;
  {
    Config full;
    full.name = "q6_full";
    full.query.table = "lineitem";
    full.query.ops = MakeQ6FullPredicates();
    full.query.payload_columns = Q6PayloadColumns();
    configs.push_back(std::move(full));
    for (const double sel : {1e-4, 1e-2, 0.5}) {
      Config c;
      c.name = "q6_intro_sel_" + PercentLabel(sel);
      const int32_t value =
          ValueForSelectivity(lineitem, "l_shipdate", sel).ValueOrDie();
      c.query.table = "lineitem";
      c.query.ops = MakeQ6IntroPredicates(value);
      c.query.payload_columns = Q6PayloadColumns();
      configs.push_back(std::move(c));
    }
  }
  // FK probes into a dimension column near the simulated L3's size: 100K
  // 8-byte values (800 KB) against ScaledXeon(16)'s 960 KB L3, at random
  // rows -- the pattern of nipobench join_sharded's probes into part.
  // Each probe is one gather element and a walk of the hierarchy.
  {
    constexpr uint32_t kDimRows = 100'000;
    Prng prng(7);
    auto dim = std::make_unique<Table>("dim");
    std::vector<int64_t> values(kDimRows);
    for (int64_t& v : values) {
      v = static_cast<int64_t>(prng.NextBounded(1'000'000));
    }
    NIPO_CHECK(dim->AddColumn("d_value", std::move(values)).ok());
    auto fact = std::make_unique<Table>("fk_fact");
    std::vector<int32_t> keys(rows);
    std::vector<int64_t> payload(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      keys[i] = static_cast<int32_t>(prng.NextBounded(kDimRows));
      payload[i] = static_cast<int64_t>(prng.NextBounded(100));
    }
    NIPO_CHECK(fact->AddColumn("f_dimkey", std::move(keys)).ok());
    NIPO_CHECK(fact->AddColumn("f_value", std::move(payload)).ok());
    NIPO_CHECK(engine.RegisterTable(std::move(dim)).ok());
    NIPO_CHECK(engine.RegisterTable(std::move(fact)).ok());
    Config c;
    c.name = "fk_probe_random";
    c.query.table = "fk_fact";
    c.query.ops = {OperatorSpec::FkProbe(
        {"f_dimkey", engine.GetTable("dim").ValueOrDie(), "d_value",
         CompareOp::kLe, 500'000.0})};
    c.query.payload_columns = {"f_value"};
    configs.push_back(std::move(c));
  }

  TablePrinter table("Simulator throughput, batched vs scalar reporting (" +
                     std::to_string(rows) + " rows per pipeline, best of " +
                     std::to_string(reps) + ")");
  table.SetHeader({"pipeline", "Mtuples/s batched", "Mtuples/s scalar",
                   "speedup", "sim msec", "counters"});

  std::vector<ConfigResult> results;
  for (const Config& config : configs) {
    ExecOptions options;
    options.vector_size = kVectorSize;
    ExecReport batched_report, scalar_report;
    engine.set_reporting_mode(ReportingMode::kBatched);
    const double batched_msec = WallMsec(
        [&] {
          auto r = engine.Execute(config.query, options);
          NIPO_CHECK(r.ok());
          batched_report = std::move(r.ValueOrDie());
        },
        reps);
    engine.set_reporting_mode(ReportingMode::kScalar);
    const double scalar_msec = WallMsec(
        [&] {
          auto r = engine.Execute(config.query, options);
          NIPO_CHECK(r.ok());
          scalar_report = std::move(r.ValueOrDie());
        },
        reps);
    engine.set_reporting_mode(ReportingMode::kBatched);

    // Correctness gate: the two reporting paths must agree bit-for-bit —
    // on the query result and on every PMU counter.
    NIPO_CHECK(batched_report.qualifying_tuples ==
               scalar_report.qualifying_tuples);
    NIPO_CHECK(batched_report.aggregate == scalar_report.aggregate);
    const bool identical =
        batched_report.counters == scalar_report.counters;
    NIPO_CHECK(identical);

    ConfigResult out;
    out.name = config.name;
    out.rows = rows;
    out.wall_msec_batched = batched_msec;
    out.wall_msec_scalar = scalar_msec;
    out.tuples_per_sec_batched =
        static_cast<double>(rows) / (batched_msec / 1e3);
    out.speedup = scalar_msec / batched_msec;
    out.simulated_msec = batched_report.simulated_msec;
    out.counters_identical = identical;
    results.push_back(out);

    table.AddRow({config.name,
                  FormatDouble(out.tuples_per_sec_batched / 1e6, 2),
                  FormatDouble(static_cast<double>(rows) /
                                   (scalar_msec / 1e3) / 1e6,
                               2),
                  FormatDouble(out.speedup, 2) + "x",
                  FormatDouble(out.simulated_msec, 3),
                  identical ? "bit-identical" : "MISMATCH"});
  }
  table.Print(std::cout);

  double geomean = 1.0;
  for (const ConfigResult& r : results) geomean *= r.speedup;
  geomean = std::pow(geomean, 1.0 / static_cast<double>(results.size()));
  std::cout << "geomean batching speedup: " << FormatDouble(geomean, 2)
            << "x\n";

  if (write_json) {
    JsonValue root = JsonValue::Object();
    root.Add("bench", "sim_throughput");
    root.Add("quick", quick);
    root.Add("host", HostMetadata());
    root.Add("rows", rows);
    root.Add("vector_size", kVectorSize);
    root.Add("geomean_speedup_vs_scalar_replay", geomean);
    JsonValue arr = JsonValue::Array();
    for (const ConfigResult& r : results) {
      JsonValue c = JsonValue::Object();
      c.Add("name", r.name);
      c.Add("wall_msec_batched", r.wall_msec_batched);
      c.Add("wall_msec_scalar", r.wall_msec_scalar);
      c.Add("tuples_per_sec_batched", r.tuples_per_sec_batched);
      // Batched vs the *current* scalar replay mode (which shares the
      // fused cache walks). The larger vs-pre-PR reference lives in
      // EXPERIMENTS.md "Perf trajectory".
      c.Add("speedup_vs_scalar_replay", r.speedup);
      c.Add("simulated_msec", r.simulated_msec);
      c.Add("counters_identical", r.counters_identical);
      arr.Push(c);
    }
    root.Add("configs", arr);
    WriteJsonArtifact(json_path, root);
  }
  return 0;
}
