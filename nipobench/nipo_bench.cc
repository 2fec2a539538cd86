/// \file nipo_bench.cc
/// The repository benchmark (see README.md in this directory).
///
///   nipo_bench --workload=NAME [--seed=N] [--seconds=S] [--trace[=PATH]]
///              [--json=PATH]
///
/// One process runs one workload. It builds its inputs from the seed
/// (TPC-H and fault seeds), runs one warm-up pass, then times whole passes
/// of queries through the public Engine API until --seconds have elapsed,
/// checking every result, and times set-up between the passes.
/// Untraced runs report the end-to-end metrics. --trace runs report the
/// per-layer metrics instead: one extra pass records spans around public
/// calls, isolated probes time single layers, and the spans are written
/// as Chrome trace-event JSON to PATH. The exit code is non-zero when any
/// execution or check failed.
///
/// The simulated caches are indexed by host addresses, so simulated
/// results move with heap placement. The binary therefore re-execs itself
/// once with address-space randomization off; the host record says
/// whether that took effect.

#include <malloc.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>

#include "bench.h"
#include "common/prng.h"
#include "exec/simd.h"

namespace nipobench {
namespace {

using namespace nipo;

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  // Point into argv: a heap copy whose size follows the path length would
  // shift later allocations, and the simulated caches see addresses.
  const char* trace_path = "";
  const char* json_path = "";
};

// Every per-layer metric, reported by every traced run. A metric of a
// layer the workload does not use reads 0; such metrics are counts or
// fractions, never times.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kPerLayer[] = {
    {"tpch.generate_s", "s"},
    {"storage.encode_ns_per_value", "ns"},
    {"storage.encoded_bytes_per_value", "B"},
    {"storage.zone_skipped_frac", "fraction"},
    {"storage.scan_ns_per_value", "ns"},
    {"exec.compare_select_ns_per_value", "ns"},
    {"exec.compile_us", "us"},
    {"exec.vector_us_p50", "us"},
    {"exec.execute_share", "fraction"},
    {"hw.new_machine_us", "us"},
    {"hw.sequential_loads_ns_per_value", "ns"},
    {"hw.predicate_branches_ns_per_value", "ns"},
    {"hw.gather_loads_ns_per_probe.orders", "ns"},
    {"hw.gather_loads_ns_per_probe.part", "ns"},
    {"hw.instructions_per_tuple", "count"},
    {"hw.mispredictions_per_ktuple", "count"},
    {"hw.l1_misses_per_ktuple", "count"},
    {"hw.l3_misses_per_ktuple", "count"},
    {"hw.l3_evictions_suffered_per_query", "count"},
    {"optimizer.on_vector_us_mean", "us"},
    {"optimizer.share", "fraction"},
    {"optimizer.optimizations_per_query", "count"},
    {"optimizer.changes_per_query", "count"},
    {"optimizer.revert_frac", "fraction"},
    {"exec.sharded.wall_speedup", "x"},
    {"exec.sharded.region_share", "fraction"},
    {"exec.sharded.worker_imbalance", "x"},
    {"exec.sharded.steals_per_query", "count"},
    {"exec.sharded.stale_morsel_frac", "fraction"},
    {"exec.workload.pool_share", "fraction"},
    {"exec.workload.event_share", "fraction"},
    {"exec.workload.replay_share", "fraction"},
    {"exec.workload.quanta_per_query", "count"},
    {"exec.workload.queue_wait_frac", "fraction"},
    {"exec.workload.retries_per_query", "count"},
    {"exec.workload.shed_frac", "fraction"},
    {"exec.workload.deadline_kill_frac", "fraction"},
    {"exec.workload.retry_useful_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: nipo_bench --workload=scan_plain|scan_encoded|"
               "join_sharded|service [--seed=N] [--seconds=S] "
               "[--trace[=PATH]] [--json=PATH]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.substr(0, n) == flag ? argv[i] + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      out->workload = v;
    } else if (const char* v = value("--seed=")) {
      out->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--seconds=")) {
      out->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(out->seconds > 0)) return false;
    } else if (arg == "--trace") {
      out->trace = true;
    } else if (const char* v = value("--trace=")) {
      out->trace = true;
      out->trace_path = v;
    } else if (const char* v = value("--json=")) {
      out->json_path = v;
    } else {
      return false;
    }
  }
  return !out->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "scan_plain") return MakeScanWorkload(false);
  if (name == "scan_encoded") return MakeScanWorkload(true);
  if (name == "join_sharded") return MakeJoinWorkload();
  if (name == "service") return MakeServiceWorkload();
  return nullptr;
}

/// Re-execs the process once with address-space randomization off.
/// Returns whether randomization is off in this process.
bool DisableAslr(char** argv) {
  const int persona = personality(0xffffffff);
  if (persona == -1) return false;
  if ((persona & ADDR_NO_RANDOMIZE) != 0) return true;
  if (personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return false;
  }
  execv("/proc/self/exe", argv);
  personality(static_cast<unsigned long>(persona));
  return false;  // exec failed: keep running with randomization on
}

// glibc's largest M_MMAP_THRESHOLD on 64-bit hosts; larger blocks are
// always mapped afresh.
constexpr int kMaxMmapThreshold = 32 << 20;

// Set-ups timed after each measured pass: as many as fit, at least one.
constexpr double kSetupSecondsPerPass = 0.1;

/// Heap memory in use, over every malloc arena: what the engine, its
/// tables and the workload hold. The peak resident size is reached while
/// the plain tables are generated, before any encoding, so it cannot show
/// a change in storage size; the resident size after the warm-up pass
/// moved 30-56 MB between seeds of service, with the free pages the pool
/// threads' arenas keep.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Host {
  size_t nproc = 0;
  std::string compiler;
  std::string simd;
  std::string commit;
  bool aslr_off = false;
};

void Report(const Options& opts, const Host& host, const Checks& checks,
            const Metrics& metrics, size_t passes) {
  std::cout << "workload " << opts.workload << "  seed " << opts.seed
            << "  passes " << passes << (opts.trace ? "  (traced)" : "")
            << "\nhost: nproc " << host.nproc << ", " << host.compiler
            << ", simd " << host.simd << ", commit " << host.commit
            << ", aslr " << (host.aslr_off ? "off" : "on") << "\n";
  for (const Metrics::Entry& e : metrics.entries()) {
    std::printf("  %-38s %18.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  for (const auto& [name, value] : metrics.info()) {
    std::printf("  info %-33s %18.6g\n", name.c_str(), value);
  }
  std::cout << "executions " << checks.attempted() << ", failed "
            << checks.failed() << (checks.correct() ? "" : "  INCORRECT")
            << "\n";
  for (const std::string& m : checks.messages()) std::cout << "  " << m << "\n";

  if (*opts.json_path == '\0') return;
  std::ostringstream json;
  json << "{\"workload\":" << Quote(opts.workload) << ",\"seed\":" << opts.seed
       << ",\"trace\":" << (opts.trace ? "true" : "false")
       << ",\"passes\":" << passes << ",\"host\":{\"nproc\":" << host.nproc
       << ",\"compiler\":" << Quote(host.compiler)
       << ",\"simd\":" << Quote(host.simd) << ",\"commit\":"
       << Quote(host.commit)
       << ",\"aslr\":" << Quote(host.aslr_off ? "off" : "on")
       << "},\"correct\":" << (checks.correct() ? "true" : "false")
       << ",\"attempted\":" << checks.attempted()
       << ",\"failed\":" << checks.failed() << ",\"messages\":[";
  for (size_t i = 0; i < checks.messages().size(); ++i) {
    json << (i ? "," : "") << Quote(checks.messages()[i]);
  }
  json << "],\"metrics\":{";
  bool first = true;
  for (const Metrics::Entry& e : metrics.entries()) {
    json << (first ? "" : ",") << Quote(e.name) << ":{\"value\":"
         << Number(e.value) << ",\"unit\":" << Quote(e.unit) << "}";
    first = false;
  }
  json << "},\"info\":{";
  first = true;
  for (const auto& [name, value] : metrics.info()) {
    json << (first ? "" : ",") << Quote(name) << ":" << Number(value);
    first = false;
  }
  json << "}}\n";
  std::ofstream out(opts.json_path);
  out << json.str();
  if (!out.good()) std::fprintf(stderr, "cannot write %s\n", opts.json_path);
}

/// Input tuples of a pass over the sum of each execution's median CPU
/// time, in reference seconds, across the measured passes. The median
/// ignores an execution that a short stall hit in one pass. Unlike a best
/// time, it does not improve with the number of passes, which faster code
/// gets more of.
double HostMtuplesPerCpuSecond(const std::vector<PassResult>& passes) {
  double seconds = 0;
  for (size_t i = 0; i < passes.front().execution_ref_s.size(); ++i) {
    std::vector<double> times;
    for (const PassResult& p : passes) times.push_back(p.execution_ref_s[i]);
    seconds += Median(std::move(times));
  }
  return static_cast<double>(passes.front().tuples) / seconds / 1e6;
}

// Latency percentiles pool the samples of every measured pass.
void AddEndToEnd(const std::vector<PassResult>& passes,
                 const std::vector<double>& setup_s, double heap_mb,
                 Metrics* m) {
  std::vector<double> base, ratio, latency, goodput;
  for (const PassResult& p : passes) {
    base.push_back(p.sim_baseline_ms);
    ratio.push_back(p.sim_progressive_ms / p.sim_oracle_ms);
    latency.insert(latency.end(), p.latency_ms.begin(), p.latency_ms.end());
    goodput.push_back(p.goodput_qps);
  }
  m->Set("setup_s", Median(setup_s), "s");
  m->Set("host_mtuples_per_cpu_s", HostMtuplesPerCpuSecond(passes),
         "Mtuples/cpu_s");
  m->Set("heap_mb", heap_mb, "MB");
  m->Set("sim_ms_baseline", Median(base), "sim_ms");
  m->Set("sim_progressive_vs_oracle", Median(ratio), "ratio");
  m->Set("sim_latency_ms_p50", NearestRank(latency, 50), "sim_ms");
  m->Set("sim_latency_ms_p95", NearestRank(latency, 95), "sim_ms");
  m->Set("sim_goodput_qps", Median(goodput), "sim_qps");
}

double Micros(const std::vector<double>& seconds) {
  return Median(seconds) * 1e6;
}

/// The traced pass, solo replays, probes and every per-layer metric.
void AddPerLayer(const Engine& engine, Workload* workload,
                 const std::vector<PassResult>& passes, Tracer* tracer,
                 Checks* checks, Metrics* m) {
  for (const MetricDef& def : kPerLayer) m->Set(def.name, 0, def.unit);
  PassResult traced;
  {
    ScopedSpan span(tracer, kSpanPass);
    traced = workload->RunPass(engine, tracer, checks);
  }
  checks->Gate(traced.fingerprint == passes.front().fingerprint,
               "traced pass differs from the untraced passes");
  for (const auto& [q, options] : workload->ReplaySet()) {
    const QuerySpec& spec = workload->queries()[q].spec;
    auto plain = engine.Execute(spec, options);
    auto replay = ReplaySolo(engine, spec, options, tracer);
    Fingerprint a, b;
    if (plain.ok()) AddReport(*plain, &a);
    if (replay.ok()) AddReport(*replay, &b);
    checks->Gate(plain.ok() && replay.ok() && a == b,
                 "traced replay differs from Engine::Execute for " +
                     workload->queries()[q].name);
  }

  std::vector<double> untraced;
  for (const PassResult& p : passes) {
    untraced.push_back(static_cast<double>(p.tuples) / p.wall_s);
  }
  m->Set("trace.overhead_frac",
         1.0 - static_cast<double>(traced.tuples) / traced.wall_s /
                   Median(untraced),
         "fraction");

  m->Set("tpch.generate_s", Median(tracer->Durations(kSpanGenerate)), "s");
  m->Set("exec.compile_us", Micros(tracer->Durations(kSpanCompile)), "us");
  m->Set("hw.new_machine_us", Micros(tracer->Durations(kSpanNewMachine)),
         "us");
  m->Set("exec.vector_us_p50", Micros(tracer->Durations(kSpanExecuteRange)),
         "us");
  const double solo_s = tracer->Total(kSpanQuery);
  const std::vector<double> on_vector = tracer->Durations(kSpanOnVector);
  const double on_vector_s = tracer->Total(kSpanOnVector);
  m->Set("exec.execute_share", tracer->Total(kSpanExecuteRange) / solo_s,
         "fraction");
  m->Set("optimizer.share", on_vector_s / solo_s, "fraction");
  m->Set("optimizer.on_vector_us_mean",
         on_vector_s * 1e6 / static_cast<double>(on_vector.size()), "us");

  const LayerTally& t = traced.tally;
  const double tuples = static_cast<double>(t.tuples);
  m->Set("storage.zone_skipped_frac",
         static_cast<double>(t.zone_skipped) / tuples, "fraction");
  m->Set("hw.instructions_per_tuple",
         static_cast<double>(t.counters.instructions) / tuples, "count");
  m->Set("hw.mispredictions_per_ktuple",
         1e3 * static_cast<double>(t.counters.mispredictions) / tuples,
         "count");
  m->Set("hw.l1_misses_per_ktuple",
         1e3 * static_cast<double>(t.counters.l1_misses) / tuples, "count");
  m->Set("hw.l3_misses_per_ktuple",
         1e3 * static_cast<double>(t.counters.l3_misses) / tuples, "count");
  m->Set("hw.l3_evictions_suffered_per_query",
         static_cast<double>(t.counters.l3_evictions_suffered) /
             static_cast<double>(t.queries),
         "count");
  const double progressive = static_cast<double>(t.progressive_queries);
  m->Set("optimizer.optimizations_per_query",
         static_cast<double>(t.optimizations) / progressive, "count");
  m->Set("optimizer.changes_per_query",
         static_cast<double>(t.changes) / progressive, "count");
  m->Set("optimizer.revert_frac",
         t.changes > 0 ? static_cast<double>(t.reverts) /
                             static_cast<double>(t.changes)
                       : 0,
         "fraction");

  auto probes = RunProbes(engine, workload->queries());
  checks->Gate(probes.ok(), "probes: " + probes.status().ToString());
  if (probes.ok()) {
    const ProbeResults& p = *probes;
    m->Set("storage.encode_ns_per_value", p.encode_ns_per_value, "ns");
    m->Set("storage.encoded_bytes_per_value", p.encoded_bytes_per_value, "B");
    m->Set("storage.scan_ns_per_value", p.scan_ns_per_value, "ns");
    m->Set("exec.compare_select_ns_per_value", p.compare_select_ns_per_value,
           "ns");
    m->Set("hw.sequential_loads_ns_per_value",
           p.sequential_loads_ns_per_value, "ns");
    m->Set("hw.predicate_branches_ns_per_value",
           p.predicate_branches_ns_per_value, "ns");
    m->Set("hw.gather_loads_ns_per_probe.orders",
           p.gather_orders_ns_per_probe, "ns");
    m->Set("hw.gather_loads_ns_per_probe.part", p.gather_part_ns_per_probe,
           "ns");
  }
  workload->AddLayerMetrics(engine, checks, m);
}

void PrintSelfTimes(const Tracer& tracer) {
  std::cout << "self time by span (traced run):\n";
  for (const auto& [name, seconds] : tracer.SelfTimes()) {
    std::printf("  %-28s %10.4f s\n", name.c_str(), seconds);
  }
}

int Main(int argc, char** argv) {
  const bool aslr_off = DisableAslr(argv);
  // Keep freed memory in the process, for the set-up copies to reuse.
  mallopt(M_MMAP_THRESHOLD, kMaxMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) return Usage();
  std::unique_ptr<Workload> workload = MakeWorkload(opts.workload);
  if (workload == nullptr) return Usage();

  Host host;
  host.nproc = static_cast<size_t>(sysconf(_SC_NPROCESSORS_ONLN));
#ifdef __VERSION__
  host.compiler = __VERSION__;
#endif
  host.simd = std::string(simd::SimdLevelName(simd::ActiveLevel()));
  const char* commit = std::getenv("NIPO_BENCH_COMMIT");
  host.commit = commit != nullptr ? commit : "unknown";
  host.aslr_off = aslr_off;

  Prng derive(opts.seed);
  Seeds seeds;
  seeds.tpch = opts.seed;
  seeds.fault = derive.Next();

  Tracer off(false);
  Tracer tracer(opts.trace);
  Checks checks;

  PrepareReference();
  const double heap_base_mb = HeapInUseMb();

  // The timed set-ups are copies of the engine, built and thrown away after
  // each measured pass, and timed in reference seconds. One untimed copy
  // first faults in the memory the copies reuse, because a page fault's
  // cost depends on the virtual machine's memory history, not on the code.
  std::vector<double> setup_s;
  auto set_up = [&](bool timed) {
    const ReferenceTimer timer(1);
    ScopedSpan span(&tracer, kSpanSetup);
    auto built = workload->Setup(seeds, &tracer);
    if (timed) setup_s.push_back(timer.Seconds());
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
    }
    return built;
  };
  auto built = set_up(false);
  if (!built.ok()) return 1;
  const std::unique_ptr<Engine> engine = std::move(built).ValueOrDie();
  const Status prepared = workload->Prepare(*engine, seeds, &checks);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
    return 1;
  }

  workload->RunPass(*engine, &off, &checks);  // warm-up, not timed
  const double heap_mb = HeapInUseMb() - heap_base_mb;  // before any copy
  if (!set_up(false).ok()) return 1;
  std::vector<PassResult> passes;
  const auto measure_begin = Clock::now();
  do {
    passes.push_back(workload->RunPass(*engine, &off, &checks));
    const auto t0 = Clock::now();
    do {
      if (!set_up(true).ok()) return 1;
    } while (SecondsSince(t0) < kSetupSecondsPerPass);
  } while (SecondsSince(measure_begin) < opts.seconds);
  for (const PassResult& p : passes) {
    checks.Gate(p.fingerprint == passes.front().fingerprint,
                "simulated results differ between passes");
  }

  Metrics metrics;
  if (opts.trace) {
    AddPerLayer(*engine, workload.get(), passes, &tracer, &checks, &metrics);
  } else {
    AddEndToEnd(passes, setup_s, heap_mb, &metrics);
  }
  for (const auto& [name, value] : passes.back().info) {
    metrics.Info(name, value);
  }
  metrics.Info("reference_kernel_ms", ReferenceKernelSeconds() * 1e3);
  Report(opts, host, checks, metrics, passes.size());
  if (opts.trace) {
    PrintSelfTimes(tracer);
    if (*opts.trace_path != '\0' &&
        !tracer.WriteChromeTrace(opts.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", opts.trace_path);
      return 1;
    }
  }
  return checks.correct() ? 0 : 1;
}

}  // namespace
}  // namespace nipobench

int main(int argc, char** argv) { return nipobench::Main(argc, argv); }
