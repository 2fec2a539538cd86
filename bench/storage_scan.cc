/// \file storage_scan.cc
/// Compressed-storage scan bench (DESIGN.md Section 10): the same
/// Q6-shaped scans over plain arrays and over dictionary/bit-packed
/// blocks with zone maps, sweeping encoding x selectivity. The headline
/// metric is *simulated* tuples/sec (input tuples over the simulated
/// critical path), so the numbers are bit-stable on any host.
///
/// Three correctness/perf gates make the sweep trustworthy: every
/// encoded configuration must return the plain configuration's results
/// bit-identically; the selective scans must actually skip blocks
/// (zone_skipped > 0 over the bulk-load-clustered shipdate); and the
/// selective encoded scan must beat plain arrays by >= 1.3x simulated
/// throughput -- the acceptance criterion of this storage layer.
///
/// Run with `--json` (ci/check.sh does, in --quick smoke form) to write
/// BENCH_storage_scan.json for the perf trajectory and the sixth
/// ci/perf_gate.py gate (metric: sim_tuples_per_sec). The JSON also
/// records `encode_ns_per_value`, the host time of encoding lineitem per
/// encoded value, and `decode_ns_per_value`, the host time of a dense
/// ColumnView::ScanBlock pass over encoded lineitem per value (decode
/// plus booking); both are wall-clock numbers and are not gated.

#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "exec/operators.h"
#include "storage/column_view.h"

namespace {

using namespace nipo;
using namespace nipo::bench;

struct ConfigResult {
  std::string name;
  uint64_t rows = 0;
  uint64_t qualifying = 0;
  uint64_t zone_skipped = 0;
  double aggregate = 0;
  double simulated_msec = 0;
  double sim_tuples_per_sec = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_storage_scan.json", &json_path);

  // SF 0.1 = ~600k lineitems, the acceptance floor of this layer.
  // Unlike the wall-clock benches, --quick does NOT shrink the data:
  // the whole sweep is sub-second, and keeping the smoke at anchor
  // scale pins the ci/perf_gate.py ratio at ~1.0 (simulated metrics
  // vary only with the heap layout the cache sim hashes, a ~1e-5
  // relative wobble across processes). Zone-skip throughput scales
  // superlinearly with table size, so a shrunken smoke would trip the
  // gate for the wrong reason.
  const double scale_factor = 0.1;
  const size_t kVectorSize = 8'192;
  Engine plain = MakeQ6Engine(scale_factor, Layout::kClustered);
  Engine encoded = MakeQ6Engine(scale_factor, Layout::kClustered);
  const Table& lineitem = *plain.GetTable("lineitem").ValueOrDie();
  const uint64_t rows = lineitem.num_rows();
  double encode_ns_per_value = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    auto stats = encoded.EncodeTable("lineitem");
    const double encode_ns = std::chrono::duration<double, std::nano>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    NIPO_CHECK(stats.ok());
    NIPO_CHECK(stats.ValueOrDie().encoded_bytes <
               stats.ValueOrDie().plain_bytes);
    encode_ns_per_value =
        encode_ns / static_cast<double>(rows * lineitem.num_columns());
  }

  // The selectivity sweep: the canonical one-year Q6 window, a highly
  // selective shipdate scan (0.1%), and an all-passing scan where zone
  // maps cannot help and the bench prices pure decode overhead.
  struct Config {
    std::string name;
    QuerySpec query;
  };
  std::vector<Config> configs;
  {
    Config year;
    year.name = "q6_year";
    year.query.table = "lineitem";
    year.query.ops = MakeQ6FullPredicates();
    year.query.payload_columns = Q6PayloadColumns();
    configs.push_back(std::move(year));

    Config selective;
    selective.name = "q6_selective";
    selective.query.table = "lineitem";
    selective.query.ops = MakeQ6IntroPredicates(
        ValueForSelectivity(lineitem, "l_shipdate", 1e-3).ValueOrDie());
    selective.query.payload_columns = Q6PayloadColumns();
    configs.push_back(std::move(selective));

    Config full;
    full.name = "full_scan";
    full.query.table = "lineitem";
    full.query.ops = {
        OperatorSpec::Predicate({"l_quantity", CompareOp::kLe, 50.0})};
    full.query.payload_columns = Q6PayloadColumns();
    configs.push_back(std::move(full));
  }

  TablePrinter table("Storage scan, plain vs encoded (" +
                     std::to_string(rows) + " lineitems, vector " +
                     std::to_string(kVectorSize) + ")");
  table.SetHeader({"pipeline", "sim Mtuples/s", "sim msec", "zone skipped",
                   "speedup vs plain", "results"});

  ExecOptions options;
  options.vector_size = kVectorSize;
  std::vector<ConfigResult> results;
  for (const Config& config : configs) {
    ConfigResult per_storage[2];
    int which = 0;
    for (Engine* engine : {&plain, &encoded}) {
      auto r = engine->Execute(config.query, options);
      NIPO_CHECK(r.ok());
      const ExecReport& report = r.ValueOrDie();
      ConfigResult& out = per_storage[which];
      out.name = (which == 0 ? "plain:" : "encoded:") + config.name;
      out.rows = rows;
      out.qualifying = report.qualifying_tuples;
      out.zone_skipped = report.zone_skipped_tuples;
      out.aggregate = report.aggregate;
      out.simulated_msec = report.simulated_msec;
      out.sim_tuples_per_sec =
          static_cast<double>(rows) / (report.simulated_msec / 1e3);
      ++which;
    }

    // Correctness gate: encoded storage must be invisible in the results.
    const bool identical =
        per_storage[0].qualifying == per_storage[1].qualifying &&
        per_storage[0].aggregate == per_storage[1].aggregate;
    NIPO_CHECK(identical);
    NIPO_CHECK(per_storage[0].zone_skipped == 0);  // plain never skips
    // Selective scans over the clustered shipdate must skip blocks.
    if (config.name != "full_scan") {
      NIPO_CHECK(per_storage[1].zone_skipped > 0);
    }

    const double speedup =
        per_storage[0].simulated_msec / per_storage[1].simulated_msec;
    for (int s = 0; s < 2; ++s) {
      const ConfigResult& out = per_storage[s];
      table.AddRow({out.name, FormatDouble(out.sim_tuples_per_sec / 1e6, 2),
                    FormatDouble(out.simulated_msec, 3),
                    std::to_string(out.zone_skipped),
                    s == 0 ? "1.00x" : FormatDouble(speedup, 2) + "x",
                    identical ? "bit-identical" : "MISMATCH"});
      results.push_back(out);
    }

    // Perf gate (acceptance criterion): at SF 0.1, the selective
    // zone-mapped encoded scan must beat plain arrays by >= 1.3x
    // simulated throughput. Deterministic at fixed scale, so it binds
    // on smoke runs too.
    if (config.name == "q6_selective") {
      NIPO_CHECK(speedup >= 1.3);
    }
  }
  // Host cost of the decode layer, measured after the sweep so its
  // buffers do not move the heap the sweep's cache simulation hashes:
  // dense ScanBlock passes over every encoded lineitem column in the
  // executors' block size, booking included. The fastest of three passes.
  const Table& encoded_lineitem = *encoded.GetTable("lineitem").ValueOrDie();
  double decode_ns = 0;
  for (size_t c = 0; c < encoded_lineitem.num_columns(); ++c) {
    const ColumnView view =
        ColumnView::Bind(encoded_lineitem.column(c)).ValueOrDie();
    DecodeScratch scratch;
    double best_ns = 0;
    for (int pass = 0; pass < 3; ++pass) {
      Pmu pmu = encoded.NewMachine();
      const auto start = std::chrono::steady_clock::now();
      for (size_t begin = 0; begin < rows; begin += kSimBlockRows) {
        view.ScanBlock(&pmu, begin, nullptr,
                       std::min<size_t>(kSimBlockRows, rows - begin),
                       &scratch);
      }
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      best_ns = pass == 0 ? ns : std::min(best_ns, ns);
    }
    decode_ns += best_ns;
  }
  const double decode_ns_per_value =
      decode_ns / static_cast<double>(rows * encoded_lineitem.num_columns());

  table.Print(std::cout);
  std::cout << "results: bit-identical between plain and encoded storage\n";
  std::cout << "encode: " << FormatDouble(encode_ns_per_value, 2)
            << " host ns per value\n";
  std::cout << "decode: " << FormatDouble(decode_ns_per_value, 2)
            << " host ns per value (dense ScanBlock)\n";

  if (write_json) {
    JsonValue arr = JsonValue::Array();
    for (const ConfigResult& r : results) {
      arr.Push(JsonValue::Object()
                   .Add("name", r.name)
                   .Add("qualifying", r.qualifying)
                   .Add("zone_skipped", r.zone_skipped)
                   .Add("simulated_msec", r.simulated_msec)
                   .Add("sim_tuples_per_sec", r.sim_tuples_per_sec));
    }
    WriteJsonArtifact(json_path,
                      JsonValue::Object()
                          .Add("bench", "storage_scan")
                          .Add("quick", quick)
                          .Add("host", HostMetadata())
                          .Add("rows", rows)
                          .Add("vector_size", kVectorSize)
                          .Add("encode_ns_per_value", encode_ns_per_value)
                          .Add("decode_ns_per_value", decode_ns_per_value)
                          .Add("results_identical", true)
                          .Add("configs", arr));
  }
  return 0;
}
