#include "hw/pmu.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "hw/shared_cache.h"

/// \file pmu.cc
/// Counter-vector arithmetic and formatting, the HwConfig presets
/// (XeonE5_2630v2 and its scaled variant), and Pmu event intake wiring
/// the branch predictor, cache hierarchy and simulated-time model
/// together.

namespace nipo {

PmuCounters PmuCounters::operator-(const PmuCounters& other) const {
  PmuCounters out = *this;
  out.instructions -= other.instructions;
  out.branches -= other.branches;
  out.branches_taken -= other.branches_taken;
  out.branches_not_taken -= other.branches_not_taken;
  out.mispredictions -= other.mispredictions;
  out.taken_mispredictions -= other.taken_mispredictions;
  out.not_taken_mispredictions -= other.not_taken_mispredictions;
  out.l1_accesses -= other.l1_accesses;
  out.l1_misses -= other.l1_misses;
  out.l2_accesses -= other.l2_accesses;
  out.l2_misses -= other.l2_misses;
  out.l3_accesses -= other.l3_accesses;
  out.l3_misses -= other.l3_misses;
  out.prefetch_requests -= other.prefetch_requests;
  out.l3_evictions_caused -= other.l3_evictions_caused;
  out.l3_evictions_suffered -= other.l3_evictions_suffered;
  out.cycles -= other.cycles;
  return out;
}

PmuCounters& PmuCounters::operator+=(const PmuCounters& other) {
  instructions += other.instructions;
  branches += other.branches;
  branches_taken += other.branches_taken;
  branches_not_taken += other.branches_not_taken;
  mispredictions += other.mispredictions;
  taken_mispredictions += other.taken_mispredictions;
  not_taken_mispredictions += other.not_taken_mispredictions;
  l1_accesses += other.l1_accesses;
  l1_misses += other.l1_misses;
  l2_accesses += other.l2_accesses;
  l2_misses += other.l2_misses;
  l3_accesses += other.l3_accesses;
  l3_misses += other.l3_misses;
  prefetch_requests += other.prefetch_requests;
  l3_evictions_caused += other.l3_evictions_caused;
  l3_evictions_suffered += other.l3_evictions_suffered;
  cycles += other.cycles;
  return *this;
}

std::string PmuCounters::ToString() const {
  std::ostringstream out;
  out << "instructions=" << instructions << " branches=" << branches
      << " taken=" << branches_taken << " not_taken=" << branches_not_taken
      << " mispredictions=" << mispredictions
      << " (taken=" << taken_mispredictions
      << ", not_taken=" << not_taken_mispredictions << ")"
      << " L3_accesses=" << l3_accesses << " L3_misses=" << l3_misses
      << " L3_evictions_caused=" << l3_evictions_caused
      << " L3_evictions_suffered=" << l3_evictions_suffered
      << " cycles=" << cycles;
  return out.str();
}

double CycleModel::LoadCycles(MemoryLevel level) const {
  switch (level) {
    case MemoryLevel::kL1:
      return l1_hit_cycles;
    case MemoryLevel::kL2:
      return l2_hit_cycles;
    case MemoryLevel::kL3:
      return l3_hit_cycles;
    case MemoryLevel::kMemory:
      return memory_cycles;
  }
  return memory_cycles;
}

HwConfig HwConfig::XeonE5_2630v2() { return HwConfig{}; }

HwConfig HwConfig::ScaledXeon(uint64_t divisor) {
  NIPO_CHECK(divisor >= 1);
  HwConfig cfg;
  auto scale = [divisor](CacheGeometry g) {
    g.capacity_bytes /= divisor;
    // Keep at least one set per way group.
    const uint64_t min_capacity =
        static_cast<uint64_t>(g.associativity) * g.line_size;
    if (g.capacity_bytes < min_capacity) g.capacity_bytes = min_capacity;
    return g;
  };
  cfg.l1 = scale(cfg.l1);
  cfg.l2 = scale(cfg.l2);
  cfg.l3 = scale(cfg.l3);
  return cfg;
}

Pmu::Pmu(HwConfig config)
    : config_(config),
      predictor_(config.predictor),
      caches_(config.l1, config.l2, config.l3, config.prefetcher) {
  line_size_ = caches_.line_size();
  line_shift_ = std::has_single_bit(line_size_)
                    ? std::countr_zero(line_size_)
                    : -1;
}

void Pmu::SyncCacheStats(PmuCounters* c) const {
  const CacheStats delta = caches_.stats() - cache_baseline_;
  c->l1_accesses = delta.l1_accesses;
  c->l1_misses = delta.l1_misses;
  c->l2_accesses = delta.l2_accesses;
  c->l2_misses = delta.l2_misses;
  c->l3_accesses = delta.l3_accesses;
  c->l3_misses = delta.l3_misses;
  c->prefetch_requests = delta.prefetch_requests;
}

PmuCounters Pmu::Read() const {
  PmuCounters out = counters_;
  SyncCacheStats(&out);
  if (shared_l3_ != nullptr) {
    const SharedCacheDomain::OwnerStats& s = shared_l3_->stats(shared_owner_);
    out.l3_evictions_caused =
        s.evictions_caused - shared_evictions_caused_base_;
    out.l3_evictions_suffered =
        s.evictions_suffered - shared_evictions_suffered_base_;
  }
  // Price the event totals through the cycle model. Pricing once at read
  // time (instead of accumulating a running double per event) is what
  // keeps scalar and batched reporting cycle-identical by construction.
  const CycleModel& m = config_.cycle_model;
  const double cycles =
      m.cycles_per_instruction * static_cast<double>(plain_instructions_) +
      m.branch_cycles * static_cast<double>(counters_.branches) +
      m.misprediction_penalty * static_cast<double>(counters_.mispredictions) +
      m.l1_hit_cycles * static_cast<double>(loads_served_[0]) +
      m.l2_hit_cycles * static_cast<double>(loads_served_[1]) +
      m.l3_hit_cycles * static_cast<double>(loads_served_[2]) +
      m.memory_cycles * static_cast<double>(loads_served_[3]) +
      charged_cycles_;
  out.cycles = static_cast<uint64_t>(std::llround(cycles));
  return out;
}

void Pmu::ResetCounters() {
  counters_ = PmuCounters{};
  plain_instructions_ = 0;
  for (uint64_t& l : loads_served_) l = 0;
  charged_cycles_ = 0.0;
  cache_baseline_ = caches_.stats();
  if (shared_l3_ != nullptr) {
    const SharedCacheDomain::OwnerStats& s = shared_l3_->stats(shared_owner_);
    shared_evictions_caused_base_ = s.evictions_caused;
    shared_evictions_suffered_base_ = s.evictions_suffered;
  }
}

void Pmu::ResetMachine() {
  ResetCounters();
  predictor_.Reset();
  // Clears the private hierarchy only; a shared domain belongs to the
  // workload, not to one machine, and is cleared by its owner.
  caches_.Clear();
  cache_baseline_ = CacheStats{};
}

void Pmu::AttachSharedL3(SharedCacheDomain* domain, uint32_t owner) {
  caches_.AttachSharedL3(domain, owner);
  shared_l3_ = domain;
  shared_owner_ = owner;
  shared_evictions_caused_base_ = 0;
  shared_evictions_suffered_base_ = 0;
  if (domain != nullptr) {
    const SharedCacheDomain::OwnerStats& s = domain->stats(owner);
    shared_evictions_caused_base_ = s.evictions_caused;
    shared_evictions_suffered_base_ = s.evictions_suffered;
  }
}

uint64_t Pmu::SharedL3OccupancyLines() const {
  return shared_l3_ != nullptr ? shared_l3_->stats(shared_owner_).occupancy_lines
                               : 0;
}

uint64_t Pmu::SharedL3PeakOccupancyLines() const {
  return shared_l3_ != nullptr
             ? shared_l3_->stats(shared_owner_).peak_occupancy_lines
             : 0;
}

void Pmu::OnPredicateBranches(size_t site, const uint8_t* pass_flags,
                              size_t n) {
  size_t j = 0;
  if (reporting_mode_ == ReportingMode::kBatched &&
      predictor_.step_table() != nullptr) {
    const size_t groups = n / 8;
    const PassFlagCounts c =
        predictor_.ObservePassFlags(site, pass_flags, groups);
    j = groups * 8;
    BookBranches(/*taken=*/false, c.not_taken, c.not_taken_mp);
    BookBranches(/*taken=*/true, j - c.not_taken, c.taken_mp);
  }
  while (j < n) {
    NIPO_DCHECK(pass_flags[j] <= 1);
    size_t k = j + 1;
    while (k < n && pass_flags[k] == pass_flags[j]) ++k;
    OnBranchRun(site, /*taken=*/pass_flags[j] == 0, k - j);
    j = k;
  }
}

void Pmu::OnSequentialLoads(const void* base, uint32_t width,
                            uint64_t count) {
  if (count == 0) return;
  NIPO_DCHECK(width > 0);
  const uint64_t addr = reinterpret_cast<uint64_t>(base);
  if (reporting_mode_ == ReportingMode::kScalar) {
    for (uint64_t i = 0; i < count; ++i) {
      OnLoadAddr(addr + i * width, width);
    }
    return;
  }
  counters_.instructions += count;
  if (line_size_ % width == 0 && addr % width == 0) {
    // Aligned elements never straddle lines: the run touches each line in
    // [first, last] in a contiguous burst. The first touch of a line runs
    // the hierarchy; every further touch of the same line is the certain
    // L1 hit a scalar replay would produce (nothing intervenes between
    // the touches), so it is booked arithmetically.
    const uint64_t first = LineOf(addr);
    const uint64_t last = LineOf(addr + count * width - 1);
    for (uint64_t l = first; l <= last; ++l) {
      ++loads_served_[static_cast<int>(caches_.AccessLine(l))];
    }
    const uint64_t coalesced = count - (last - first + 1);
    loads_served_[static_cast<int>(MemoryLevel::kL1)] += coalesced;
    caches_.CountCoalescedL1Hits(coalesced);
    return;
  }
  // Unaligned / line-straddling elements (e.g. 24-byte hash-table slots):
  // walk the touched lines per element, still skipping the hierarchy for
  // immediate same-line repeats. Matching the scalar path, only an
  // element's *first* line prices its load; continuation lines of a
  // straddling element update cache statistics but cost no load cycles
  // (CacheHierarchy::Access returns the first line's serving level).
  uint64_t prev_line = ~uint64_t{0};
  uint64_t coalesced = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t a = addr + i * width;
    const uint64_t first = LineOf(a);
    const uint64_t last = LineOf(a + width - 1);
    if (first == prev_line) {
      ++coalesced;
      ++loads_served_[static_cast<int>(MemoryLevel::kL1)];
    } else {
      ++loads_served_[static_cast<int>(caches_.AccessLine(first))];
    }
    for (uint64_t l = first + 1; l <= last; ++l) {
      caches_.AccessLine(l);
    }
    prev_line = last;
  }
  caches_.CountCoalescedL1Hits(coalesced);
}

void Pmu::OnGatherLoads(const void* base, uint32_t width,
                        const uint32_t* indices, size_t count) {
  if (count == 0) return;
  NIPO_DCHECK(width > 0);
  const uint64_t addr = reinterpret_cast<uint64_t>(base);
  if (reporting_mode_ == ReportingMode::kScalar) {
    for (size_t i = 0; i < count; ++i) {
      OnLoadAddr(addr + static_cast<uint64_t>(indices[i]) * width, width);
    }
    return;
  }
  counters_.instructions += count;
  // Width-dividing-line gathers (every column type) cannot straddle, so
  // the inner loop reduces to one line check per element.
  if (line_size_ % width == 0 && addr % width == 0) {
    uint64_t prev_line = ~uint64_t{0};
    uint64_t coalesced = 0;
    for (size_t i = 0; i < count; ++i) {
      const uint64_t l =
          LineOf(addr + static_cast<uint64_t>(indices[i]) * width);
      if (l == prev_line) {
        ++coalesced;
      } else {
        ++loads_served_[static_cast<int>(caches_.AccessLine(l))];
        prev_line = l;
      }
    }
    loads_served_[static_cast<int>(MemoryLevel::kL1)] += coalesced;
    caches_.CountCoalescedL1Hits(coalesced);
    return;
  }
  uint64_t prev_line = ~uint64_t{0};
  uint64_t coalesced = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = addr + static_cast<uint64_t>(indices[i]) * width;
    const uint64_t first = LineOf(a);
    const uint64_t last = LineOf(a + width - 1);
    if (first == prev_line) {
      ++coalesced;
      ++loads_served_[static_cast<int>(MemoryLevel::kL1)];
    } else {
      ++loads_served_[static_cast<int>(caches_.AccessLine(first))];
    }
    for (uint64_t l = first + 1; l <= last; ++l) {
      caches_.AccessLine(l);
    }
    prev_line = last;
  }
  caches_.CountCoalescedL1Hits(coalesced);
}

double Pmu::ToMilliseconds(const PmuCounters& counters) const {
  const double cycles_per_msec = config_.cycle_model.frequency_ghz * 1e6;
  return static_cast<double>(counters.cycles) / cycles_per_msec;
}

}  // namespace nipo
