#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hw/branch_predictor.h"
#include "hw/cache.h"

/// \file pmu.h
/// Simulated Performance Monitoring Unit.
///
/// This is the repository's substitution for the paper's non-invasive
/// hardware counters (DESIGN.md Section 1): the executor reports its
/// dynamic events (instructions, loads, conditional branches) to a Pmu,
/// which drives the simulated branch predictor and cache hierarchy and
/// accumulates exactly the event vocabulary of the paper's Section 2.2:
///
///  - conditional branches, branches taken / not taken,
///  - mispredictions, split into mispredicted-taken and
///    mispredicted-not-taken,
///  - cache accesses and misses per level, with L3 accesses counting
///    demand plus prefetch requests,
///  - retired instructions and simulated core cycles.
///
/// Sampling follows the PMU programming model: take a Snapshot before and
/// after a region and subtract, exactly like PAPI_read around a query
/// vector.

namespace nipo {

/// \brief The counter values visible to the optimizer. All counts are
/// cumulative since the last Reset(); use Snapshot subtraction for
/// windowed samples.
struct PmuCounters {
  uint64_t instructions = 0;
  uint64_t branches = 0;            ///< conditional branches executed
  uint64_t branches_taken = 0;
  uint64_t branches_not_taken = 0;
  uint64_t mispredictions = 0;
  uint64_t taken_mispredictions = 0;      ///< actually taken, predicted NT
  uint64_t not_taken_mispredictions = 0;  ///< actually not taken, predicted T
  uint64_t l1_accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_accesses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_accesses = 0;  ///< demand + prefetch requests reaching L3
  uint64_t l3_misses = 0;
  uint64_t prefetch_requests = 0;
  /// Shared-L3 cross-owner eviction counters (hw/shared_cache.h); always
  /// zero for a detached machine and for a single owner, so every
  /// contention=off bit-equality gate is unaffected.
  uint64_t l3_evictions_caused = 0;  ///< other owners' lines this one evicted
  uint64_t l3_evictions_suffered = 0;  ///< own lines evicted by other owners
  uint64_t cycles = 0;  ///< simulated core cycles (see CycleModel)

  PmuCounters operator-(const PmuCounters& other) const;
  PmuCounters& operator+=(const PmuCounters& other);
  bool operator==(const PmuCounters& other) const = default;
  std::string ToString() const;
};

/// \brief Maps micro-events to simulated core cycles.
///
/// The constants follow the usual back-of-envelope numbers for the Ivy
/// Bridge generation the paper evaluates on; only their ratios matter for
/// reproducing the paper's run-time *shapes* (DESIGN.md Section 1).
struct CycleModel {
  double cycles_per_instruction = 0.5;  ///< superscalar issue
  double branch_cycles = 0.5;           ///< correctly predicted branch
  double misprediction_penalty = 15.0;  ///< pipeline flush
  double l1_hit_cycles = 1.0;
  double l2_hit_cycles = 10.0;
  double l3_hit_cycles = 30.0;
  double memory_cycles = 90.0;  ///< effective (bandwidth-amortized) miss cost
  double frequency_ghz = 2.6;   ///< Xeon E5-2630 v2
};

/// \brief Full description of the simulated machine.
struct HwConfig {
  PredictorConfig predictor = PredictorConfig::Symmetric(6);
  CacheGeometry l1{32 * 1024, 8};
  CacheGeometry l2{256 * 1024, 8};
  CacheGeometry l3{15 * 1024 * 1024, 20};
  CycleModel cycle_model;

  /// The paper's evaluation machine: Intel Xeon E5-2630 v2 (Ivy Bridge EP),
  /// 2.6 GHz, 32 KB L1d / 256 KB L2 per core, 15 MB shared L3, 6-state
  /// predictor behaviour.
  static HwConfig XeonE5_2630v2();

  /// Same machine with cache capacities divided by `divisor`. The
  /// experiments shrink both the data set and the caches by the same
  /// factor, preserving the data-to-cache ratios that the paper's locality
  /// effects depend on, while keeping simulation time on a laptop budget.
  static HwConfig ScaledXeon(uint64_t divisor);
};

/// \brief How executors report their event stream to the Pmu.
///
/// The *events* are identical either way; the mode only selects the
/// mechanics of booking them. kBatched is the default and roughly an
/// order of magnitude cheaper on scan-shaped work; kScalar replays every
/// run one event at a time and exists so differential tests can prove the
/// two modes produce bit-identical PmuCounters (tests/pmu_batch_test.cc,
/// DESIGN.md "Batched simulation").
enum class ReportingMode : int {
  kScalar,   ///< one predictor/cache walk per event
  kBatched,  ///< run coalescing + closed-form predictor updates
};

/// \brief The simulated PMU: one predictor + one cache hierarchy + cycle
/// accounting, shared by all operators of a running query.
///
/// Threading: a Pmu is a *core-private* machine — it is not synchronized,
/// and every worker thread of a sharded execution must own its own
/// instance (see CloneFresh and DESIGN.md "Parallel execution").
class Pmu {
 public:
  explicit Pmu(HwConfig config = HwConfig::XeonE5_2630v2());

  const HwConfig& config() const { return config_; }

  /// Creates a fresh machine with the same configuration and reporting
  /// mode: cold caches, neutral predictor, zero counters. This is the
  /// per-worker machine construction path of the parallel driver
  /// (exec/parallel_driver.h): every worker thread gets an identically
  /// configured private core.
  Pmu CloneFresh() const {
    Pmu fresh(config_);
    fresh.reporting_mode_ = reporting_mode_;
    return fresh;
  }

  ReportingMode reporting_mode() const { return reporting_mode_; }
  void set_reporting_mode(ReportingMode mode) { reporting_mode_ = mode; }

  /// Registers `n` static branch sites (idempotent growth).
  void EnsureBranchSites(size_t n) { predictor_.EnsureSites(n); }

  /// Reports `n` retired non-branch, non-load instructions.
  void OnInstructions(uint64_t n) {
    counters_.instructions += n;
    plain_instructions_ += n;
  }

  /// Reports one conditional branch at `site` with actual direction
  /// `taken`; runs the predictor and charges cycles.
  void OnBranch(size_t site, bool taken) {
    const BranchOutcome out = predictor_.Observe(site, taken);
    BookBranches(taken, 1, out.mispredicted ? 1 : 0);
  }

  /// Reports `n` consecutive branches at `site` that all went direction
  /// `taken` (executors emit one call per maximal uniform run). The
  /// batched mode resolves the predictor walk in closed form
  /// (BranchPredictor::ObserveRun); the scalar mode replays the run
  /// event by event. Counter-identical either way.
  void OnBranchRun(size_t site, bool taken, uint64_t n) {
    if (reporting_mode_ == ReportingMode::kScalar) {
      for (uint64_t i = 0; i < n; ++i) OnBranch(site, taken);
      return;
    }
    BookBranches(taken, n, predictor_.ObserveRun(site, taken, n));
  }

  /// Reports one conditional branch per evaluated element at `site`, in
  /// element order, from the executor's pass flags: the branch is taken
  /// iff the flag is zero (not taken = the tuple qualifies, the
  /// convention of every scan loop here). Every flag must be 0 or 1, as
  /// simd::CompareSelect writes them (checked).
  ///
  /// The batched mode books whole groups of 8 flags with one lookup in
  /// the predictor's step table (BranchPredictor::ObservePassFlags); a
  /// tail of fewer than 8 flags, a predictor too large for a table, and
  /// the scalar mode split the flags into maximal uniform runs and book
  /// each through OnBranchRun. Counter-identical either way (DESIGN.md
  /// Section 4, "Predicate branch streams").
  void OnPredicateBranches(size_t site, const uint8_t* pass_flags, size_t n);

  /// Reports a demand load of `width` bytes at `addr`; runs the cache
  /// hierarchy and charges cycles for the serving level.
  MemoryLevel OnLoadAddr(uint64_t addr, uint32_t width) {
    ++counters_.instructions;
    const MemoryLevel level = caches_.Access(addr, width);
    ++loads_served_[static_cast<int>(level)];
    return level;
  }

  /// Reports `count` loads of one `width`-byte element each at
  /// `base, base + width, ...` — the column stride-1 run every scan hot
  /// loop produces. The batched mode touches the hierarchy once per
  /// distinct cache line and books the remaining same-line touches as
  /// the L1 hits a scalar replay would certainly produce.
  ///
  /// Precondition of both bulk forms, in both reporting modes (checked):
  /// `width` divides the line size and `base` is `width`-aligned, so no
  /// element straddles a line. Every column width (1, 2, 4, 8 bytes)
  /// meets it.
  void OnSequentialLoads(const void* base, uint32_t width, uint64_t count);

  /// Reports `count` loads of `width`-byte elements at rows
  /// `indices[0..count)` of the array starting at `base` (a gather over a
  /// selection vector or probe-key list). Consecutive touches of the same
  /// line — adjacent surviving rows, clustered keys — coalesce exactly
  /// like the sequential form. Same precondition as OnSequentialLoads.
  void OnGatherLoads(const void* base, uint32_t width,
                     const uint32_t* indices, size_t count);

  /// Charges raw cycles (used to model the cost of reading the counters
  /// themselves, which the paper shows to be negligible).
  void ChargeCycles(double cycles) { charged_cycles_ += cycles; }

  /// Reads the current counter values (the PAPI_read equivalent).
  PmuCounters Read() const;

  /// Clears counters and cycle accumulation; keeps predictor/cache state
  /// (a real PMU reset does not flush the caches either).
  void ResetCounters();

  /// Simulated wall-clock milliseconds for `counters`.
  double ToMilliseconds(const PmuCounters& counters) const;

  /// Attaches this machine's L3 to a shared domain under `owner`'s id
  /// (see hw/shared_cache.h): L1/L2 stay private, L3 fills route through
  /// the domain, and Read() windows the owner's cross-owner eviction
  /// counters like the cache stats (baselined at ResetCounters). Pass
  /// nullptr to detach. CloneFresh() never copies an attachment.
  void AttachSharedL3(SharedCacheDomain* domain, uint32_t owner);
  bool shared_l3_attached() const { return shared_l3_ != nullptr; }

  /// Lines this machine currently / at peak owns in the attached shared
  /// L3 (0 when detached). Gauges, deliberately not PmuCounters fields:
  /// occupancy is instantaneous state, not an accumulated event count,
  /// and folding it into the counter vector would break windowed
  /// subtraction and counter equality.
  uint64_t SharedL3OccupancyLines() const;
  uint64_t SharedL3PeakOccupancyLines() const;

  BranchPredictor& predictor() { return predictor_; }
  const CacheHierarchy& caches() const { return caches_; }

 private:
  void SyncCacheStats(PmuCounters* c) const;

  /// Books `n` same-direction branches of which `mispredicted` were
  /// mispredicted (shared by the scalar and batched paths).
  void BookBranches(bool taken, uint64_t n, uint64_t mispredicted) {
    counters_.branches += n;
    counters_.instructions += n;
    if (taken) {
      counters_.branches_taken += n;
      counters_.taken_mispredictions += mispredicted;
    } else {
      counters_.branches_not_taken += n;
      counters_.not_taken_mispredictions += mispredicted;
    }
    counters_.mispredictions += mispredicted;
  }

  HwConfig config_;
  BranchPredictor predictor_;
  CacheHierarchy caches_;
  PmuCounters counters_;
  ReportingMode reporting_mode_ = ReportingMode::kBatched;
  // Cycle accounting is event-count based: Read() prices the totals
  // below through the CycleModel. Keeping counts instead of a running
  // double sum is what makes bulk (batched) and per-event (scalar)
  // reporting produce identical cycles for *any* cycle model — the two
  // paths increment the same integers and the pricing arithmetic runs
  // once, at read time.
  uint64_t plain_instructions_ = 0;  ///< OnInstructions units (CPI-priced)
  uint64_t loads_served_[4] = {0, 0, 0, 0};  ///< demand loads per level
  double charged_cycles_ = 0.0;              ///< raw ChargeCycles sum
  // Cache stats baseline at last ResetCounters(), so counter windows
  // subtract correctly while the hierarchy keeps warm state.
  CacheStats cache_baseline_;
  // Shared-L3 attachment (nullptr when detached) and the owner's
  // eviction-counter baselines, refreshed alongside cache_baseline_.
  SharedCacheDomain* shared_l3_ = nullptr;
  uint32_t shared_owner_ = 0;
  uint64_t shared_evictions_caused_base_ = 0;
  uint64_t shared_evictions_suffered_base_ = 0;
};

}  // namespace nipo
