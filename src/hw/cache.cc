#include "hw/cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "exec/simd.h"
#include "hw/shared_cache.h"

#if defined(NIPO_SIMD_AVX2)
#include <immintrin.h>
#endif

/// \file cache.cc
/// Simulated set-associative LRU cache levels and the inclusive
/// L1/L2/L3-plus-memory hierarchy with next-line prefetch, counting
/// accesses and misses per level.

namespace nipo {

namespace {

constexpr uint64_t kEmptyTag = ~uint64_t{0};
// Rank of pad slots: above every real rank (< kMaxWays) and the largest
// int8_t, so no touch ever increments it and no victim search finds it.
constexpr int8_t kPadRank = 0x7F;

// ---------------------------------------------------------------------------
// Set-walk kernels over one set's `kStride` tag and rank slots (the AVX2
// ones match tags in the first `kWays` >= ways of them). Both levels
// produce the same Walk and the same set state: tags are unique
// within a set (at most one way matches), and ranks form a permutation of
// 0..ways-1 over the real ways (exactly one way holds the oldest rank).
// A touch of way w adds 1 to every rank below rank[w] and sets rank[w] to
// 0; touching the rank-0 way changes nothing and is skipped.
// ---------------------------------------------------------------------------

// The way holding rank `oldest`, eight ranks per word: a byte of `word ^
// pattern` is zero exactly where the rank matches, and the lowest byte the
// zero-byte test flags is always a true zero. Exactly one way matches.
uint32_t OldestScalar(const int8_t* ranks, int8_t oldest) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  const uint64_t pattern = kOnes * static_cast<uint8_t>(oldest);
  for (uint32_t base = 0;; base += 8) {
    uint64_t word;
    std::memcpy(&word, ranks + base, sizeof(word));
    const uint64_t x = word ^ pattern;
    const uint64_t zero = (x - kOnes) & ~x & (kOnes << 7);
    if (zero != 0) return base + std::countr_zero(zero) / 8;
  }
}

// The scalar walk scans like a plain LRU cache: empty ways form a suffix
// of the real ways (fills take the first empty one, nothing empties a
// way but Clear), so the scan stops at the line or at the first empty
// way, and only a miss in a full set searches the ranks for the victim.
template <uint32_t kStride>
CacheLevel::Walk WalkScalar(const uint64_t* tags, int8_t* ranks,
                            uint64_t line, int8_t oldest, bool refresh_hit) {
  const uint32_t ways = static_cast<uint32_t>(oldest) + 1;
  CacheLevel::Walk walk{0, false};
  while (walk.way < ways && tags[walk.way] != line &&
         tags[walk.way] != kEmptyTag) {
    ++walk.way;
  }
  if (walk.way < ways && tags[walk.way] == line) {
    walk.hit = true;
    if (!refresh_hit) return walk;
  } else if (walk.way == ways) {
    walk.way = OldestScalar(ranks, oldest);
  }
  const int8_t rank = ranks[walk.way];
  if (rank == 0) return walk;
  for (uint32_t w = 0; w < kStride; ++w) {
    ranks[w] = ranks[w] == rank
                   ? int8_t{0}
                   : static_cast<int8_t>(ranks[w] + (ranks[w] < rank));
  }
  return walk;
}

#if defined(NIPO_SIMD_AVX2)

template <uint32_t kWays>
__attribute__((target("avx2"))) uint32_t MatchAvx2(const uint64_t* tags,
                                                   uint64_t line) {
  const __m256i key = _mm256_set1_epi64x(static_cast<long long>(line));
  uint32_t mask = 0;
  for (uint32_t g = 0; g < kWays / 4; ++g) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags + 4 * g));
    const int lanes = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(t, key)));
    mask |= static_cast<uint32_t>(lanes) << (4 * g);
  }
  return mask;
}

// The rank update is one signed byte compare and subtract: pad ranks
// never compare below, and the touched way, the only one holding its
// rank, is cleared in the same register, so the ranks are written with
// one store (a second, narrower store would defeat store forwarding into
// the next walk of the same set).
template <uint32_t kStride, uint32_t kWays>
__attribute__((target("avx2"))) CacheLevel::Walk WalkAvx2(
    const uint64_t* tags, int8_t* ranks, uint64_t line, int8_t oldest,
    bool refresh_hit) {
  const uint32_t match = MatchAvx2<kWays>(tags, line);
  const bool hit = match != 0;
  if (hit && !refresh_hit) {
    return {static_cast<uint32_t>(std::countr_zero(match)), true};
  }
  if constexpr (kStride == 16) {
    __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks));
    const uint32_t oldest_mask = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(r, _mm_set1_epi8(oldest))));
    const auto way =
        static_cast<uint32_t>(std::countr_zero(hit ? match : oldest_mask));
    const int8_t rank = ranks[way];
    if (rank != 0) {
      const __m128i rw = _mm_set1_epi8(rank);
      r = _mm_andnot_si128(_mm_cmpeq_epi8(r, rw),
                           _mm_sub_epi8(r, _mm_cmpgt_epi8(rw, r)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(ranks), r);
    }
    return {way, hit};
  } else {
    static_assert(kStride == 32);
    __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks));
    const uint32_t oldest_mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(r, _mm256_set1_epi8(oldest))));
    const auto way =
        static_cast<uint32_t>(std::countr_zero(hit ? match : oldest_mask));
    const int8_t rank = ranks[way];
    if (rank != 0) {
      const __m256i rw = _mm256_set1_epi8(rank);
      r = _mm256_andnot_si256(_mm256_cmpeq_epi8(r, rw),
                              _mm256_sub_epi8(r, _mm256_cmpgt_epi8(rw, r)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ranks), r);
    }
    return {way, hit};
  }
}

#endif  // NIPO_SIMD_AVX2

}  // namespace

CacheLevel::CacheLevel(CacheGeometry geometry)
    : geometry_(geometry),
      num_sets_(geometry.num_sets()),
      ways_(geometry.associativity) {
  NIPO_CHECK(geometry_.line_size > 0);
  NIPO_CHECK(geometry_.associativity > 0);
  NIPO_CHECK(num_sets_ > 0);
  // Normalize the set count to a power of two so SetIndex can mask,
  // re-deriving the associativity from the (unchanged) line count: e.g.
  // the Xeon L3's 245760 lines organize as 12288 sets x 20 ways in
  // hardware and as 16384 sets x 15 ways here — same bytes, same hashed
  // placement randomness, mask-indexable. Of the two neighboring powers
  // of two, keep the one retaining the most lines; whenever the line
  // count divides one of them (every geometry in this repository, ties
  // prefer the larger set count / fewer ways) capacity is preserved
  // exactly, and otherwise at most a way's worth of lines is dropped —
  // the same flooring character CacheGeometry::num_sets() already has
  // for non-dividing associativities.
  if (!std::has_single_bit(num_sets_)) {
    const uint64_t lines = geometry.num_lines();
    const uint64_t down = std::bit_floor(num_sets_);
    const uint64_t up = std::bit_ceil(num_sets_);
    num_sets_ = lines - lines % up >= lines - lines % down ? up : down;
    ways_ = static_cast<uint32_t>(lines / num_sets_);
  }
  NIPO_CHECK(ways_ <= kMaxWays);
  set_mask_ = num_sets_ - 1;
  stride_ = ways_ <= 16 ? 16 : 32;
  oldest_rank_ = static_cast<int8_t>(ways_ - 1);
  walk_ = stride_ == 16 ? WalkScalar<16> : WalkScalar<32>;
#if defined(NIPO_SIMD_AVX2)
  if (simd::ActiveLevel() == simd::SimdLevel::kAvx2) {
    // Tag matches cover the first 8, 16 or 32 slots: every way, and pads
    // beyond 8 only where ways need them (both 8-way levels of the Xeon).
    walk_ = ways_ <= 8    ? WalkAvx2<16, 8>
            : ways_ <= 16 ? WalkAvx2<16, 16>
                          : WalkAvx2<32, 32>;
  }
#endif
  tags_.resize(num_sets_ * stride_);
  ranks_.resize(num_sets_ * stride_);
  prefetched_.resize(num_sets_);
  Clear();
}

bool CacheLevel::AccessFill(HashedLine line, bool* was_prefetched) {
  NIPO_DCHECK(line.line != kEmptyTag);
  const size_t set = SetIndex(line.hash);
  const Walk walk = WalkSet(set, line.line, /*refresh_hit=*/true);
  const uint32_t bit = uint32_t{1} << walk.way;
  if (walk.hit) {
    ++hits_;
    if (was_prefetched != nullptr) {
      *was_prefetched = (prefetched_[set] & bit) != 0;
      prefetched_[set] &= ~bit;
    }
    return true;
  }
  ++misses_;
  tags_[set * stride_ + walk.way] = line.line;
  prefetched_[set] &= ~bit;
  return false;
}

CacheLevel::OwnedAccess CacheLevel::AccessFillOwned(HashedLine line,
                                                    uint32_t owner) {
  NIPO_DCHECK(line.line != kEmptyTag);
  if (owners_.empty()) owners_.resize(tags_.size());
  const size_t set = SetIndex(line.hash);
  const Walk walk = WalkSet(set, line.line, /*refresh_hit=*/true);
  const size_t slot = set * stride_ + walk.way;
  OwnedAccess out;
  if (walk.hit) {
    ++hits_;
    out.hit = true;
    out.prev_owner = owners_[slot];
    owners_[slot] = owner;  // last accessor owns (no prefetched-mark
                            // change, matching AccessFill without
                            // was_prefetched)
    return out;
  }
  ++misses_;
  if (tags_[slot] != kEmptyTag) {
    out.displaced = true;
    out.victim_owner = owners_[slot];
  }
  tags_[slot] = line.line;
  prefetched_[set] &= ~(uint32_t{1} << walk.way);
  owners_[slot] = owner;
  return out;
}

uint64_t CacheLevel::occupied_lines() const {
  uint64_t n = 0;
  for (const uint64_t tag : tags_) n += tag != kEmptyTag;
  return n;
}

bool CacheLevel::FillIfAbsent(HashedLine line) {
  NIPO_DCHECK(line.line != kEmptyTag);
  const size_t set = SetIndex(line.hash);
  const Walk walk = WalkSet(set, line.line, /*refresh_hit=*/false);
  if (walk.hit) return true;
  tags_[set * stride_ + walk.way] = line.line;
  prefetched_[set] |= uint32_t{1} << walk.way;
  return false;
}

bool CacheLevel::Contains(HashedLine line) const {
  const uint64_t* tags = &tags_[SetIndex(line.hash) * stride_];
  return std::find(tags, tags + ways_, line.line) != tags + ways_;
}

void CacheLevel::Clear() {
  // Empty ways start ranked oldest in index order (way 0 holds rank
  // ways-1), so fills take the first empty way until the set is full.
  std::array<int8_t, kMaxWays> pattern;
  pattern.fill(kPadRank);
  for (uint32_t w = 0; w < ways_; ++w) {
    pattern[w] = static_cast<int8_t>(ways_ - 1 - w);
  }
  int8_t* ranks = ranks_.data();
  for (uint64_t set = 0; set < num_sets_; ++set, ranks += stride_) {
    std::memcpy(ranks, pattern.data(), stride_);
  }
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  std::fill(prefetched_.begin(), prefetched_.end(), 0u);
  std::fill(owners_.begin(), owners_.end(), 0u);
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

// Each level's probe-and-fill is one set walk (AccessFill /
// FillIfAbsent), and every level masks its set from the one hash per line
// that HashedLine carries.
MemoryLevel CacheHierarchy::DemandAccess(HashedLine line) {
  ++stats_.l1_accesses;
  if (l1_.AccessFill(line)) {
    return MemoryLevel::kL1;
  }
  ++stats_.l1_misses;
  ++stats_.l2_accesses;
  MemoryLevel served;
  bool was_prefetched = false;
  if (l2_.AccessFill(line, &was_prefetched)) {
    served = MemoryLevel::kL2;
    // First demand use of a prefetched line: the stream prefetcher keeps
    // running ahead (stream continuation).
    if (prefetcher_enabled_ && was_prefetched) {
      Prefetch(line.line + 1);
    }
  } else {
    ++stats_.l2_misses;
    ++stats_.l3_accesses;
    if (AccessL3(line)) {
      served = MemoryLevel::kL3;
    } else {
      ++stats_.l3_misses;
      served = MemoryLevel::kMemory;
    }
    // L2 demand miss: the next-line prefetcher kicks in (Section 2.2.2 /
    // 3.1 of the paper: prefetch requests count as L3 accesses).
    if (prefetcher_enabled_) {
      Prefetch(line.line + 1);
    }
  }
  return served;
}

void CacheHierarchy::Prefetch(HashedLine line) {
  if (l2_.FillIfAbsent(line)) {
    return;  // already resident; hardware squashes the request
  }
  ++stats_.prefetch_requests;
  ++stats_.l3_accesses;
  if (!AccessL3(line)) {
    ++stats_.l3_misses;
  }
}

bool CacheHierarchy::AccessL3(HashedLine line) {
  if (shared_l3_ != nullptr) {
    return shared_l3_->AccessFill(shared_owner_, line);
  }
  return l3_.AccessFill(line);
}

}  // namespace nipo
