#include "hw/cache.h"

#include <algorithm>
#include <bit>

#include "hw/shared_cache.h"

/// \file cache.cc
/// Simulated set-associative LRU cache levels and the inclusive
/// L1/L2/L3-plus-memory hierarchy with next-line prefetch, counting
/// accesses and misses per level.

namespace nipo {

std::string_view MemoryLevelToString(MemoryLevel level) {
  switch (level) {
    case MemoryLevel::kL1:
      return "L1";
    case MemoryLevel::kL2:
      return "L2";
    case MemoryLevel::kL3:
      return "L3";
    case MemoryLevel::kMemory:
      return "memory";
  }
  return "unknown";
}

CacheLevel::CacheLevel(CacheGeometry geometry)
    : geometry_(geometry),
      num_sets_(geometry.num_sets()),
      ways_(geometry.associativity) {
  NIPO_CHECK(geometry_.line_size > 0);
  NIPO_CHECK(geometry_.associativity > 0);
  NIPO_CHECK(num_sets_ > 0);
  // Normalize the set count to a power of two so SetIndex can mask instead
  // of `%`, re-deriving the associativity from the (unchanged) line
  // count: e.g. the Xeon L3's 245760 lines organize as 12288 sets x 20
  // ways in hardware and as 16384 sets x 15 ways here — same bytes, same
  // hashed placement randomness, mask-indexable. Of the two neighboring
  // powers of two, keep the one retaining the most lines; whenever the
  // line count divides one of them (every geometry in this repository,
  // ties prefer the larger set count / shorter way scans) capacity is
  // preserved exactly, and otherwise at most a way's worth of lines is
  // dropped — the same flooring character CacheGeometry::num_sets()
  // already has for non-dividing associativities.
  if (!std::has_single_bit(num_sets_)) {
    const uint64_t lines = geometry.num_lines();
    const uint64_t down = std::bit_floor(num_sets_);
    const uint64_t up = std::bit_ceil(num_sets_);
    num_sets_ = lines - lines % up >= lines - lines % down ? up : down;
    ways_ = static_cast<uint32_t>(lines / num_sets_);
  }
  set_mask_ = num_sets_ - 1;
  slots_.resize(num_sets_ * ways_);
  mru_.assign(num_sets_, 0);
}

bool CacheLevel::Lookup(uint64_t line_addr) {
  const size_t set_index = SetIndex(line_addr);
  Way* set = &slots_[set_index * ways_];
  // MRU early-out: repeated touches of a hot line (hash-table slots, the
  // current scan line) resolve in one compare.
  const uint32_t mru = mru_[set_index];
  if (set[mru].tag == line_addr) {
    set[mru].lru_stamp = ++tick_;
    ++hits_;
    return true;
  }
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].tag == line_addr) {
      set[w].lru_stamp = ++tick_;
      mru_[set_index] = w;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  return false;
}

void CacheLevel::Insert(uint64_t line_addr, bool prefetched) {
  const size_t set_index = SetIndex(line_addr);
  Way* set = &slots_[set_index * ways_];
  Way* victim = &set[0];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].tag == line_addr) {
      set[w].lru_stamp = ++tick_;
      mru_[set_index] = w;
      return;  // already resident; keep its existing mark
    }
    if (set[w].tag == kEmptyTag) {
      victim = &set[w];
      break;
    }
    if (set[w].lru_stamp < victim->lru_stamp) victim = &set[w];
  }
  victim->tag = line_addr;
  victim->lru_stamp = ++tick_;
  victim->prefetched = prefetched;
  mru_[set_index] = static_cast<uint32_t>(victim - set);
}

bool CacheLevel::AccessFill(uint64_t line_addr, bool* was_prefetched) {
  const size_t set_index = SetIndex(line_addr);
  Way* set = &slots_[set_index * ways_];
  const uint32_t mru = mru_[set_index];
  Way* hit = set[mru].tag == line_addr ? &set[mru] : nullptr;
  Way* victim = &set[0];
  if (hit == nullptr) {
    for (uint32_t w = 0; w < ways_; ++w) {
      if (set[w].tag == line_addr) {
        hit = &set[w];
        mru_[set_index] = w;
        break;
      }
      if (set[w].tag == kEmptyTag) {
        victim = &set[w];
        break;
      }
      if (set[w].lru_stamp < victim->lru_stamp) victim = &set[w];
    }
  }
  if (hit != nullptr) {
    hit->lru_stamp = ++tick_;
    ++hits_;
    if (was_prefetched != nullptr) {
      *was_prefetched = hit->prefetched;
      hit->prefetched = false;
    }
    return true;
  }
  ++misses_;
  victim->tag = line_addr;
  victim->lru_stamp = ++tick_;
  victim->prefetched = false;
  mru_[set_index] = static_cast<uint32_t>(victim - set);
  return false;
}

CacheLevel::OwnedAccess CacheLevel::AccessFillOwned(uint64_t line_addr,
                                                    uint32_t owner) {
  const size_t set_index = SetIndex(line_addr);
  Way* set = &slots_[set_index * ways_];
  const uint32_t mru = mru_[set_index];
  Way* hit = set[mru].tag == line_addr ? &set[mru] : nullptr;
  Way* victim = &set[0];
  if (hit == nullptr) {
    for (uint32_t w = 0; w < ways_; ++w) {
      if (set[w].tag == line_addr) {
        hit = &set[w];
        mru_[set_index] = w;
        break;
      }
      if (set[w].tag == kEmptyTag) {
        victim = &set[w];
        break;
      }
      if (set[w].lru_stamp < victim->lru_stamp) victim = &set[w];
    }
  }
  OwnedAccess out;
  if (hit != nullptr) {
    hit->lru_stamp = ++tick_;
    ++hits_;
    out.hit = true;
    out.prev_owner = hit->owner;
    hit->owner = owner;  // last accessor owns (no prefetched-mark change,
                         // matching AccessFill without was_prefetched)
    return out;
  }
  ++misses_;
  if (victim->tag != kEmptyTag) {
    out.displaced = true;
    out.victim_owner = victim->owner;
  }
  victim->tag = line_addr;
  victim->lru_stamp = ++tick_;
  victim->prefetched = false;
  victim->owner = owner;
  mru_[set_index] = static_cast<uint32_t>(victim - set);
  return out;
}

uint64_t CacheLevel::occupied_lines() const {
  uint64_t n = 0;
  for (const Way& w : slots_) {
    if (w.tag != kEmptyTag) ++n;
  }
  return n;
}

bool CacheLevel::FillIfAbsent(uint64_t line_addr) {
  const size_t set_index = SetIndex(line_addr);
  Way* set = &slots_[set_index * ways_];
  if (set[mru_[set_index]].tag == line_addr) return true;
  Way* victim = &set[0];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].tag == line_addr) return true;
    if (set[w].tag == kEmptyTag) {
      victim = &set[w];
      break;
    }
    if (set[w].lru_stamp < victim->lru_stamp) victim = &set[w];
  }
  victim->tag = line_addr;
  victim->lru_stamp = ++tick_;
  victim->prefetched = true;
  mru_[set_index] = static_cast<uint32_t>(victim - set);
  return false;
}

bool CacheLevel::Contains(uint64_t line_addr) const {
  const size_t set_index = SetIndex(line_addr);
  const Way* set = &slots_[set_index * ways_];
  if (set[mru_[set_index]].tag == line_addr) return true;
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].tag == line_addr) return true;
  }
  return false;
}

void CacheLevel::Clear() {
  for (Way& w : slots_) w = Way{};
  std::fill(mru_.begin(), mru_.end(), 0u);
  tick_ = 0;
}

CacheStats& CacheStats::operator-=(const CacheStats& other) {
  l1_accesses -= other.l1_accesses;
  l1_misses -= other.l1_misses;
  l2_accesses -= other.l2_accesses;
  l2_misses -= other.l2_misses;
  l3_accesses -= other.l3_accesses;
  l3_misses -= other.l3_misses;
  prefetch_requests -= other.prefetch_requests;
  return *this;
}

CacheStats CacheStats::operator-(const CacheStats& other) const {
  CacheStats out = *this;
  out -= other;
  return out;
}

CacheHierarchy::CacheHierarchy(CacheGeometry l1, CacheGeometry l2,
                               CacheGeometry l3, bool enable_prefetcher)
    : l1_(l1), l2_(l2), l3_(l3), prefetcher_enabled_(enable_prefetcher) {
  NIPO_CHECK(l1.line_size == l2.line_size && l2.line_size == l3.line_size);
}

MemoryLevel CacheHierarchy::Access(uint64_t addr, uint32_t width) {
  const uint32_t line = line_size();
  const uint64_t first_line = addr / line;
  const uint64_t last_line = (addr + (width > 0 ? width - 1 : 0)) / line;
  MemoryLevel deepest = AccessLine(first_line);
  for (uint64_t l = first_line + 1; l <= last_line; ++l) {
    AccessLine(l);
  }
  return deepest;
}

MemoryLevel CacheHierarchy::AccessLine(uint64_t line_addr) {
  return DemandAccess(line_addr);
}

// Each level's probe-and-fill runs as one fused set walk (AccessFill /
// FillIfAbsent). The fills therefore execute slightly earlier relative to
// *other* levels' operations than in a naive lookup-then-insert spelling,
// which is unobservable: a level's LRU clock advances only on its own
// operations, and the per-level operation order is unchanged.
MemoryLevel CacheHierarchy::DemandAccess(uint64_t line_addr) {
  ++stats_.l1_accesses;
  if (l1_.AccessFill(line_addr)) {
    return MemoryLevel::kL1;
  }
  ++stats_.l1_misses;
  ++stats_.l2_accesses;
  MemoryLevel served;
  bool was_prefetched = false;
  if (l2_.AccessFill(line_addr, &was_prefetched)) {
    served = MemoryLevel::kL2;
    // First demand use of a prefetched line: the stream prefetcher keeps
    // running ahead (stream continuation).
    if (prefetcher_enabled_ && was_prefetched) {
      Prefetch(line_addr + 1);
    }
  } else {
    ++stats_.l2_misses;
    ++stats_.l3_accesses;
    if (AccessL3(line_addr)) {
      served = MemoryLevel::kL3;
    } else {
      ++stats_.l3_misses;
      served = MemoryLevel::kMemory;
    }
    // L2 demand miss: the next-line prefetcher kicks in (Section 2.2.2 /
    // 3.1 of the paper: prefetch requests count as L3 accesses).
    if (prefetcher_enabled_) {
      Prefetch(line_addr + 1);
    }
  }
  return served;
}

void CacheHierarchy::Prefetch(uint64_t line_addr) {
  if (l2_.FillIfAbsent(line_addr)) {
    return;  // already resident; hardware squashes the request
  }
  ++stats_.prefetch_requests;
  ++stats_.l3_accesses;
  if (!AccessL3(line_addr)) {
    ++stats_.l3_misses;
  }
}

bool CacheHierarchy::AccessL3(uint64_t line_addr) {
  if (shared_l3_ != nullptr) {
    return shared_l3_->AccessFill(shared_owner_, line_addr);
  }
  return l3_.AccessFill(line_addr);
}

}  // namespace nipo
