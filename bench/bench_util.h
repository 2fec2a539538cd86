#pragma once

/// \file bench_util.h
/// Shared scaffolding for the figure-reproduction benchmarks.
///
/// Scale note: the paper runs TPC-H SF 100 (600M lineitems, 600 vectors of
/// 1M tuples) on a real Xeon E5-2630 v2. The benches run the same
/// experiments on a scaled pair of (data, machine): lineitem shrinks by
/// ~500-3000x and the simulated caches shrink by the factor given to
/// HwConfig::ScaledXeon, preserving the data:cache ratios the locality
/// effects depend on. Absolute "simulated ms" therefore differ from the
/// paper; the *shapes* (who wins, crossovers, robustness factors) are the
/// reproduction target (see EXPERIMENTS.md).

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "exec/simd.h"
#include "tpch/distributions.h"
#include "tpch/q6.h"
#include "tpch/tpch_gen.h"

namespace nipo::bench {

/// Simple aggregate over a series.
struct SeriesStats {
  double min = 0, max = 0, avg = 0;
};

inline SeriesStats Stats(const std::vector<double>& xs) {
  NIPO_CHECK(!xs.empty());
  SeriesStats s;
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.avg = std::accumulate(xs.begin(), xs.end(), 0.0) /
          static_cast<double>(xs.size());
  return s;
}

/// Builds an Engine with a lineitem table of the given scale and layout.
inline Engine MakeQ6Engine(double scale_factor, Layout layout,
                           uint64_t cache_divisor = 16,
                           uint64_t seed = 42) {
  Engine engine(HwConfig::ScaledXeon(cache_divisor));
  TpchConfig cfg;
  cfg.scale_factor = scale_factor;
  cfg.seed = seed;
  auto li = GenerateLineitem(cfg);
  NIPO_CHECK(li.ok());
  if (layout != Layout::kClustered) {
    // The generator's native layout is already weakly clustered; only
    // re-lay-out for sorted/random.
    Prng prng(seed + 1);
    NIPO_CHECK(
        ApplyLayout(li.ValueOrDie().get(), "l_shipdate", layout, &prng)
            .ok());
  }
  NIPO_CHECK(engine.RegisterTable(std::move(li.ValueOrDie())).ok());
  return engine;
}

/// Simulated msec of every evaluation order of `query` (fixed order, no
/// optimization), in AllOrders() enumeration order.
inline std::vector<double> PermutationSweep(const Engine& engine,
                                            const QuerySpec& query,
                                            size_t vector_size) {
  std::vector<double> ms;
  ExecOptions options;
  options.vector_size = vector_size;
  for (const auto& order : AllOrders(query.ops.size())) {
    options.order = order;
    auto r = engine.Execute(query, options);
    NIPO_CHECK(r.ok());
    ms.push_back(r.ValueOrDie().simulated_msec);
  }
  return ms;
}

/// Shipdate selectivity grid used by Figures 1 and 12 (fractions; the
/// paper's x axis is in percent, 1e-4 % .. 1e2 %).
inline std::vector<double> ShipdateSelectivityGrid() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0};
}

inline std::string PercentLabel(double fraction) {
  return FormatDouble(fraction * 100.0, 4) + "%";
}

/// Best-of-2 workload execution — the sim_throughput warmup pattern
/// applied to the workload bench smokes: the first run absorbs process
/// warmup (page faults, heap growth, cold branch predictors) that
/// best-of-1 would fold into the host wall-clock figures as
/// hosted-runner noise. The *simulated* headline metrics are
/// deterministic within a process, so the warmup rep doubles as a rerun
/// bit-identity gate on them; the returned report is the run with the
/// lower host wall time.
inline WorkloadReport ExecuteWorkloadBestOf2(const Engine& engine,
                                             const WorkloadSpec& spec) {
  auto first = engine.Execute(spec);
  NIPO_CHECK(first.ok());
  auto second = engine.Execute(spec);
  NIPO_CHECK(second.ok());
  WorkloadReport& a = first.ValueOrDie();
  WorkloadReport& b = second.ValueOrDie();
  NIPO_CHECK(a.sim_makespan_msec == b.sim_makespan_msec);
  NIPO_CHECK(a.sim_queries_per_sec == b.sim_queries_per_sec);
  NIPO_CHECK(a.latency == b.latency);
  return std::move(a.wall_msec <= b.wall_msec ? a : b);
}

// ---------------------------------------------------------------------------
// --json support: benches that track a perf trajectory write a
// BENCH_<name>.json artifact next to their table output, so CI can archive
// machine-readable results across PRs (see EXPERIMENTS.md "Perf
// trajectory").
// ---------------------------------------------------------------------------

/// \brief Minimal JSON value builder (objects, arrays, numbers, strings,
/// booleans) — just enough for flat bench artifacts, no external deps.
class JsonValue {
 public:
  static JsonValue Object() { return JsonValue("{", "}"); }
  static JsonValue Array() { return JsonValue("[", "]"); }

  JsonValue& Add(const std::string& key, double v) {
    return AddRaw(key, NumberToString(v));
  }
  JsonValue& Add(const std::string& key, uint64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonValue& Add(const std::string& key, int v) {
    return AddRaw(key, std::to_string(v));
  }
  JsonValue& Add(const std::string& key, bool v) {
    return AddRaw(key, v ? "true" : "false");
  }
  JsonValue& Add(const std::string& key, const std::string& v) {
    return AddRaw(key, Quote(v));
  }
  JsonValue& Add(const std::string& key, const char* v) {
    return AddRaw(key, Quote(v));
  }
  JsonValue& Add(const std::string& key, const JsonValue& v) {
    return AddRaw(key, v.ToString());
  }
  /// Array element (no key); valid only on Array() values.
  JsonValue& Push(const JsonValue& v) { return AddRaw("", v.ToString()); }

  std::string ToString() const {
    std::string out = open_;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ",";
      out += items_[i];
    }
    out += close_;
    return out;
  }

 private:
  JsonValue(std::string open, std::string close)
      : open_(std::move(open)), close_(std::move(close)) {}

  JsonValue& AddRaw(const std::string& key, const std::string& value) {
    items_.push_back(key.empty() ? value : Quote(key) + ":" + value);
    return *this;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  static std::string NumberToString(double v) {
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
  }

  std::string open_, close_;
  std::vector<std::string> items_;
};

/// Parses a `--json[=path]` flag. Returns true iff the flag is present;
/// `*path` receives the explicit path or `default_path`.
inline bool ParseJsonFlag(int argc, char** argv,
                          const std::string& default_path,
                          std::string* path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      *path = default_path;
      return true;
    }
    if (arg.rfind("--json=", 0) == 0) {
      *path = arg.substr(7);
      return true;
    }
  }
  return false;
}

/// The host a measurement ran on, for trajectory anchors: online CPUs,
/// compiler, the SIMD level the kernels and cache walks run at, and the
/// commit of the working tree (`git describe --always --dirty`, run from
/// the current directory; "unknown" outside a git checkout).
inline JsonValue HostMetadata() {
  JsonValue host = JsonValue::Object();
  host.Add("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
#if defined(__clang__)
  host.Add("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  host.Add("compiler", "gcc " __VERSION__);
#endif
  host.Add("simd", std::string(simd::SimdLevelName(simd::ActiveLevel())));
  std::string commit;
  if (FILE* git = popen(
          "git describe --always --dirty --abbrev=12 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, git) != nullptr) commit += buf;
    pclose(git);
  }
  while (!commit.empty() && std::isspace(static_cast<unsigned char>(
                                commit.back()))) {
    commit.pop_back();
  }
  host.Add("commit", commit.empty() ? "unknown" : commit);
  return host;
}

/// Writes `value` to `path` (with a trailing newline) and reports where.
inline void WriteJsonArtifact(const std::string& path,
                              const JsonValue& value) {
  std::ofstream out(path);
  NIPO_CHECK(out.good());
  out << value.ToString() << "\n";
  NIPO_CHECK(out.good());
  std::cout << "wrote " << path << "\n";
}

}  // namespace nipo::bench
