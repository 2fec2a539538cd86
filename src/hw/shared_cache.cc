#include "hw/shared_cache.h"

/// \file shared_cache.cc
/// Per-owner occupancy and eviction accounting layered over one
/// owner-tagged CacheLevel (CacheLevel::AccessFillOwned).

namespace nipo {

SharedCacheDomain::SharedCacheDomain(CacheGeometry geometry)
    : level_(geometry),
      capacity_lines_(level_.num_sets() *
                      static_cast<uint64_t>(level_.ways())) {}

uint32_t SharedCacheDomain::RegisterOwner(std::string name) {
  const uint32_t id = static_cast<uint32_t>(owners_.size());
  owners_.emplace_back();
  names_.push_back(std::move(name));
  return id;
}

bool SharedCacheDomain::AccessFill(uint32_t owner, HashedLine line) {
  NIPO_DCHECK(owner < owners_.size());
  const CacheLevel::OwnedAccess r = level_.AccessFillOwned(line, owner);
  OwnerStats& s = owners_[owner];
  if (r.hit) {
    ++s.hits;
    if (r.prev_owner != owner) {
      // Ownership transfer on a cross-owner hit: the line now serves the
      // accessor's working set. Not an eviction — nothing left the cache.
      NIPO_DCHECK(owners_[r.prev_owner].occupancy_lines > 0);
      --owners_[r.prev_owner].occupancy_lines;
      ++s.occupancy_lines;
      if (s.occupancy_lines > s.peak_occupancy_lines) {
        s.peak_occupancy_lines = s.occupancy_lines;
      }
    }
    return true;
  }
  ++s.misses;
  if (r.displaced) {
    ++lines_displaced_;
    OwnerStats& victim = owners_[r.victim_owner];
    NIPO_DCHECK(victim.occupancy_lines > 0);
    --victim.occupancy_lines;
    if (r.victim_owner == owner) {
      ++s.self_evictions;
    } else {
      ++victim.evictions_suffered;
      ++s.evictions_caused;
    }
  }
  ++s.occupancy_lines;
  if (s.occupancy_lines > s.peak_occupancy_lines) {
    s.peak_occupancy_lines = s.occupancy_lines;
  }
  return false;
}

uint64_t SharedCacheDomain::total_occupancy_lines() const {
  uint64_t total = 0;
  for (const OwnerStats& s : owners_) total += s.occupancy_lines;
  return total;
}

void SharedCacheDomain::Clear() {
  level_.Clear();
  level_.ResetStats();
  for (OwnerStats& s : owners_) s = OwnerStats{};
  lines_displaced_ = 0;
}

}  // namespace nipo
