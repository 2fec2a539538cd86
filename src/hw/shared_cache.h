#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cache.h"

/// \file shared_cache.h
/// Shared last-level cache with per-owner occupancy accounting.
///
/// The paper's evaluation machine has per-core L1/L2 but one 15 MB L3
/// shared by every core (Section 2.1), so concurrent queries compete for
/// L3 capacity: a scan streaming a large column evicts the lines a
/// co-running join was reusing, and the victim's L3 miss counter — one of
/// the four monitored events — goes up through no fault of its own. A
/// SharedCacheDomain models exactly that: one CacheLevel whose ways carry
/// an owner tag, with per-owner hit/miss/occupancy gauges and cross-owner
/// eviction counters. Query machines (Pmu) keep their private L1/L2 and
/// route L3 fills through the domain via Pmu::AttachSharedL3.
///
/// Determinism: the domain is intentionally unsynchronized, like every
/// other simulated machine component. Contended workload execution
/// serializes quanta in event order (exec/workload_driver.cc,
/// "contention mode"), so the interleaving of owners' accesses — and
/// therefore every counter — is a pure function of the schedule.

namespace nipo {

/// \brief One shared cache level tracking which owner's lines occupy it.
class SharedCacheDomain {
 public:
  /// Per-owner view of the domain. Hits/misses/evictions are monotone
  /// counters; occupancy_lines is a gauge (rises on fills and ownership
  /// transfers, falls on evictions and transfers away).
  struct OwnerStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions_caused = 0;  ///< other owners' lines it displaced
    uint64_t evictions_suffered = 0;  ///< its lines displaced by others
    uint64_t self_evictions = 0;      ///< its lines displaced by itself
    uint64_t occupancy_lines = 0;     ///< lines it owns right now
    uint64_t peak_occupancy_lines = 0;
  };

  explicit SharedCacheDomain(CacheGeometry geometry);

  /// Adds an owner and returns its id (dense, starting at 0).
  uint32_t RegisterOwner(std::string name);

  /// Demand/prefetch probe-and-fill for `owner`. Returns true on hit.
  /// A hit on another owner's line transfers ownership to the accessor
  /// (the line is re-tagged, occupancy gauges move, no eviction is
  /// charged); a miss that displaces another owner's line charges one
  /// eviction to the aggressor (`evictions_caused`) and one to the
  /// victim (`evictions_suffered`).
  bool AccessFill(uint32_t owner, HashedLine line);

  size_t num_owners() const { return owners_.size(); }
  const OwnerStats& stats(uint32_t owner) const {
    NIPO_DCHECK(owner < owners_.size());
    return owners_[owner];
  }
  const std::string& owner_name(uint32_t owner) const {
    NIPO_DCHECK(owner < names_.size());
    return names_[owner];
  }

  /// Sum of the per-owner occupancy gauges. The accounting invariant —
  /// checked by the contention tests after every quantum — is that this
  /// equals level().occupied_lines() at all times.
  uint64_t total_occupancy_lines() const;

  /// Total lines ever displaced from the level. Invariant: equals the
  /// sum over owners of evictions_suffered + self_evictions (every
  /// displaced line is charged to exactly one owner).
  uint64_t lines_displaced() const { return lines_displaced_; }

  /// Drops contents and all per-owner statistics; owner registrations
  /// survive.
  void Clear();

  const CacheLevel& level() const { return level_; }
  uint64_t capacity_lines() const { return capacity_lines_; }

 private:
  CacheLevel level_;
  uint64_t capacity_lines_;
  std::vector<OwnerStats> owners_;
  std::vector<std::string> names_;
  uint64_t lines_displaced_ = 0;
};

}  // namespace nipo
