/// \file simd_kernels.cc
/// SIMD kernel bench: host wall-clock throughput of the executor's hot
/// kernel (DESIGN.md Section 8) — compare-to-mask selection over double
/// and int32 columns — AVX2 versus the branch-free scalar fallback, with
/// bit-identity between the two kernel levels enforced on every
/// configuration.
///
/// This is the perf-trajectory anchor for the SIMD layer: run with
/// `--json` (ci/check.sh does) to write BENCH_simd_kernels.json. The
/// committed repo-root anchor records the AVX2 speedups this machine
/// achieves; the CI gate checks the smoke `tuples_per_sec_simd` against
/// it. `--quick` shrinks the workload to CI-smoke size.

#include <chrono>
#include <functional>
#include <iostream>

#include "bench_util.h"
#include "common/prng.h"
#include "exec/simd.h"

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
  double wall_msec_simd = 0;
  double wall_msec_scalar = 0;
  double tuples_per_sec_simd = 0;
  double speedup = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_simd_kernels.json", &json_path);

  const bool avx2 = simd::Avx2Available();
  // Best-of-2 even in quick mode: the first iteration absorbs process
  // warmup, which best-of-1 would hand to the perf gate as noise.
  const int reps = quick ? 2 : 3;
  // Selection working set: 64k elements (0.5 MB of doubles) stays
  // resident in the host's caches across the `iters` sweeps, so the
  // measurement is of the kernel, not of DRAM bandwidth. kSimBlockRows-
  // sized calls would measure call overhead instead; 64k amortizes it the
  // way the executor's block loop does.
  const size_t n = 1u << 16;
  const size_t iters = quick ? 64 : 512;

  Prng prng(42);
  std::vector<double> doubles(n);
  std::vector<int32_t> int32s(n);
  for (size_t i = 0; i < n; ++i) {
    doubles[i] = prng.NextDouble();
    int32s[i] = static_cast<int32_t>(prng.NextBounded(1'000'000));
  }

  std::vector<ConfigResult> results;

  // Runs `kernel(level, simd_pass)` at both levels, times them, and
  // checks the two passes produced bit-identical outputs via
  // `identical()`. The kernels pick their output buffers by `simd_pass`,
  // not by level: on a host without AVX2 (or under NIPO_SIMD=OFF) the
  // "simd" pass runs the scalar fallback, and the identity gate then
  // degenerates to scalar-vs-scalar instead of comparing against buffers
  // that were never written.
  auto run_levels = [&](const std::string& name, uint64_t rows,
                        const std::function<void(simd::SimdLevel, bool)>& kernel,
                        const std::function<bool()>& identical) {
    ConfigResult out;
    out.name = name;
    out.rows = rows;
    out.wall_msec_scalar = WallMsec(
        [&] { kernel(simd::SimdLevel::kScalar, /*simd_pass=*/false); }, reps);
    out.wall_msec_simd = WallMsec(
        [&] {
          kernel(avx2 ? simd::SimdLevel::kAvx2 : simd::SimdLevel::kScalar,
                 /*simd_pass=*/true);
        },
        reps);
    out.identical = identical();
    NIPO_CHECK(out.identical);
    out.tuples_per_sec_simd =
        static_cast<double>(rows) / (out.wall_msec_simd / 1e3);
    out.speedup = out.wall_msec_scalar / out.wall_msec_simd;
    results.push_back(out);
  };

  // --- selection: compare-to-mask + selection-vector compaction, dense
  // input, selectivity 0.5 (the branchy executor's worst case). Entries
  // of the selection vector past the returned count are unspecified, so
  // identity compares the prefix (plus the full pass-flag array).
  std::vector<uint8_t> pass_a(n), pass_b(n);
  std::vector<uint32_t> sel_a(n), sel_b(n);
  size_t count_a = 0, count_b = 0;
  const auto select_identical = [&] {
    return count_a == count_b && pass_a == pass_b &&
           std::equal(sel_a.begin(),
                      sel_a.begin() + static_cast<ptrdiff_t>(count_a),
                      sel_b.begin());
  };
  const auto select_config = [&](const std::string& name, DataType type,
                                 const void* data, double value) {
    run_levels(
        name, n * iters,
        [&, type, data, value](simd::SimdLevel level, bool simd_pass) {
          for (size_t it = 0; it < iters; ++it) {
            (simd_pass ? count_b : count_a) = simd::CompareSelect(
                level, type, static_cast<const uint8_t*>(data), 0,
                CompareOp::kLt, value, nullptr, nullptr, n,
                (simd_pass ? pass_b : pass_a).data(),
                (simd_pass ? sel_b : sel_a).data());
          }
        },
        select_identical);
  };
  select_config("select_double", DataType::kDouble, doubles.data(), 0.5);
  select_config("select_int32", DataType::kInt32, int32s.data(), 500'000.0);

  TablePrinter table("SIMD kernel throughput, " +
                     std::string(avx2 ? "AVX2" : "scalar-only host") +
                     " vs branch-free scalar (best of " +
                     std::to_string(reps) + ")");
  table.SetHeader(
      {"kernel", "Mtuples/s simd", "Mtuples/s scalar", "speedup", "identical"});
  for (const ConfigResult& r : results) {
    table.AddRow({r.name, FormatDouble(r.tuples_per_sec_simd / 1e6, 2),
                  FormatDouble(static_cast<double>(r.rows) /
                                   (r.wall_msec_scalar / 1e3) / 1e6,
                               2),
                  FormatDouble(r.speedup, 2) + "x",
                  r.identical ? "bit-identical" : "MISMATCH"});
  }
  table.Print(std::cout);

  if (write_json) {
    JsonValue root = JsonValue::Object();
    root.Add("bench", "simd_kernels");
    root.Add("quick", quick);
    root.Add("host", HostMetadata());
    root.Add("avx2_available", avx2);
    root.Add("rows", static_cast<uint64_t>(n));
    JsonValue arr = JsonValue::Array();
    for (const ConfigResult& r : results) {
      JsonValue c = JsonValue::Object();
      c.Add("name", r.name);
      c.Add("rows", r.rows);
      c.Add("wall_msec_simd", r.wall_msec_simd);
      c.Add("wall_msec_scalar", r.wall_msec_scalar);
      c.Add("tuples_per_sec_simd", r.tuples_per_sec_simd);
      c.Add("speedup_vs_scalar", r.speedup);
      c.Add("identical", r.identical);
      arr.Push(c);
    }
    root.Add("configs", arr);
    WriteJsonArtifact(json_path, root);
  }
  return 0;
}
