/// \file ablation_cache_model.cc
/// Ablation for DESIGN.md decision #2: the paper's modification of the
/// Pirk et al. scan model -- counting random misses twice (wasted
/// next-line prefetch + demand fetch). Compares both model variants
/// against the simulated cache hierarchy across access densities.

#include "bench_util.h"
#include "common/prng.h"
#include "cost/cache_model.h"
#include "hw/cache.h"

using namespace nipo;
using namespace nipo::bench;

int main() {
  const size_t kTuples = 400'000;
  TablePrinter table(
      "Ablation: double-counted random misses vs original model "
      "(conditional int32 scan)");
  table.SetHeader({"density", "simulated L3 acc", "double-count est",
                   "err %", "single-count est", "err %"});

  for (double rho : {0.002, 0.01, 0.03, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0}) {
    CacheHierarchy caches(CacheGeometry{8 * 1024, 8},
                          CacheGeometry{64 * 1024, 8},
                          CacheGeometry{1024 * 1024, 16});
    Prng prng(5);
    const uint64_t base = 1u << 30;
    for (size_t i = 0; i < kTuples; ++i) {
      if (prng.NextBool(rho)) caches.Access(base + i * 4, 4);
    }
    const double simulated =
        static_cast<double>(caches.stats().l3_accesses);

    ScanCacheModelConfig with{};
    ScanCacheModelConfig without{};
    without.double_count_random_misses = false;
    const ScanColumnSpec col{4, rho};
    const double est_double =
        EstimateColumnCache(with, static_cast<double>(kTuples), col)
            .l3_accesses;
    const double est_single =
        EstimateColumnCache(without, static_cast<double>(kTuples), col)
            .l3_accesses;
    auto err = [&](double est) {
      return simulated > 0 ? 100.0 * (est - simulated) / simulated : 0.0;
    };
    table.AddRow({FormatDouble(rho, 3), FormatDouble(simulated, 0),
                  FormatDouble(est_double, 0),
                  FormatDouble(err(est_double), 1),
                  FormatDouble(est_single, 0),
                  FormatDouble(err(est_single), 1)});
  }
  table.Print(std::cout);
  std::cout
      << "Expected: in the low-density regime the single-count model\n"
         "under-estimates by up to ~2x (it misses the wasted prefetches),\n"
         "while the double-count model stays within ~15%. Above ~20%\n"
         "density both coincide (every line is a sequential access).\n";
  return 0;
}
