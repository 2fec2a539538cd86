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

// One set walk's outcome (see WalkSet).
struct SetWalk {
  uint32_t way;
  bool hit;
};

// ---------------------------------------------------------------------------
// Set walks over one set's `stride` tag and rank slots, one per ISA (the
// AVX2 one matches tags in the first `match_ways` >= ways of them). Both
// produce the same SetWalk and the same set state: tags are unique within
// a set (at most one way matches), and ranks form a permutation of
// 0..ways-1 over the real ways (exactly one way holds the oldest rank).
// A touch of way w adds 1 to every rank below rank[w] and sets rank[w] to
// 0; touching the rank-0 way changes nothing and is skipped.
//
// WalkSet resolves `line` in `set`. On a hit it returns the line's way and
// makes it the most recent iff `refresh_hit`; on a miss it returns the
// first-empty-else-LRU victim's way, already made the most recent (the
// caller installs the tag).
// ---------------------------------------------------------------------------

struct ScalarIsa {};

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

template <uint32_t kStride>
void TouchScalar(int8_t* ranks, int8_t rank) {
  for (uint32_t w = 0; w < kStride; ++w) {
    ranks[w] = ranks[w] == rank
                   ? int8_t{0}
                   : static_cast<int8_t>(ranks[w] + (ranks[w] < rank));
  }
}

// The scalar walk scans like a plain LRU cache: empty ways form a suffix
// of the real ways (fills take the first empty one, nothing empties a
// way but Clear), so the scan stops at the line or at the first empty
// way, and only a miss in a full set searches the ranks for the victim.
// Kept out of line: five inlined copies of its loops made the scalar
// demand path about a third slower per line than one shared copy.
__attribute__((noinline)) SetWalk WalkSet(ScalarIsa, CacheLevel::State& s,
                                          size_t set, uint64_t line,
                                          bool refresh_hit) {
  const uint64_t* tags = &s.tags[set * s.stride];
  int8_t* ranks = &s.ranks[set * s.stride];
  const uint32_t ways = static_cast<uint32_t>(s.oldest_rank) + 1;
  SetWalk walk{0, false};
  while (walk.way < ways && tags[walk.way] != line &&
         tags[walk.way] != kEmptyTag) {
    ++walk.way;
  }
  if (walk.way < ways && tags[walk.way] == line) {
    walk.hit = true;
    if (!refresh_hit) return walk;
  } else if (walk.way == ways) {
    walk.way = OldestScalar(ranks, s.oldest_rank);
  }
  const int8_t rank = ranks[walk.way];
  if (rank == 0) return walk;
  if (s.stride == 16) {
    TouchScalar<16>(ranks, rank);
  } else {
    TouchScalar<32>(ranks, rank);
  }
  return walk;
}

#if defined(NIPO_SIMD_AVX2)

struct Avx2Isa {};

__attribute__((target("avx2"))) inline uint32_t Match4Avx2(
    const uint64_t* tags, __m256i key) {
  const __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
  return static_cast<uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(t, key))));
}

// Tag match over the first 8, 16 or 32 slots: every way, and pads beyond
// 8 only where ways need them (both 8-way levels of the Xeon).
__attribute__((target("avx2"))) inline uint32_t MatchAvx2(
    const uint64_t* tags, uint64_t line, uint32_t match_ways) {
  const __m256i key = _mm256_set1_epi64x(static_cast<long long>(line));
  uint32_t mask = Match4Avx2(tags, key) | Match4Avx2(tags + 4, key) << 4;
  if (match_ways > 8) {
    mask |= Match4Avx2(tags + 8, key) << 8 | Match4Avx2(tags + 12, key) << 12;
    if (match_ways > 16) {
      for (uint32_t g = 4; g < 8; ++g) {
        mask |= Match4Avx2(tags + 4 * g, key) << (4 * g);
      }
    }
  }
  return mask;
}

// The way holding rank `oldest` (exactly one does).
__attribute__((target("avx2"))) inline uint32_t OldestAvx2(
    const int8_t* ranks, uint32_t stride, int8_t oldest) {
  uint32_t mask;
  if (stride == 16) {
    const __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks));
    mask = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(r, _mm_set1_epi8(oldest))));
  } else {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks));
    mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(r, _mm256_set1_epi8(oldest))));
  }
  return static_cast<uint32_t>(std::countr_zero(mask));
}

// The touch is one signed byte compare and subtract: pad ranks never
// compare below, and the touched way, the only one holding its rank, is
// cleared in the same register, so the ranks are written with one store
// (a second, narrower store would defeat store forwarding into the next
// walk of the same set).
__attribute__((target("avx2"))) inline void TouchAvx2(int8_t* ranks,
                                                      uint32_t stride,
                                                      int8_t rank) {
  if (rank == 0) return;
  if (stride == 16) {
    const __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ranks));
    const __m128i rw = _mm_set1_epi8(rank);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ranks),
                     _mm_andnot_si128(_mm_cmpeq_epi8(r, rw),
                                      _mm_sub_epi8(r, _mm_cmpgt_epi8(rw, r))));
  } else {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks));
    const __m256i rw = _mm256_set1_epi8(rank);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(ranks),
        _mm256_andnot_si256(_mm256_cmpeq_epi8(r, rw),
                            _mm256_sub_epi8(r, _mm256_cmpgt_epi8(rw, r))));
  }
}

// A miss's victim holds the oldest rank by definition, so only a hit
// reads its way's rank.
__attribute__((target("avx2"))) inline SetWalk WalkSet(
    Avx2Isa, CacheLevel::State& s, size_t set, uint64_t line,
    bool refresh_hit) {
  const uint64_t* tags = &s.tags[set * s.stride];
  int8_t* ranks = &s.ranks[set * s.stride];
  const uint32_t match = MatchAvx2(tags, line, s.match_ways);
  if (match != 0) {
    const auto way = static_cast<uint32_t>(std::countr_zero(match));
    if (refresh_hit) TouchAvx2(ranks, s.stride, ranks[way]);
    return {way, true};
  }
  const uint32_t way = OldestAvx2(ranks, s.stride, s.oldest_rank);
  TouchAvx2(ranks, s.stride, s.oldest_rank);
  return {way, false};
}

#endif  // NIPO_SIMD_AVX2

// ---------------------------------------------------------------------------
// Gather line runs. The element at `indices[i]` lies on line
// (addr + indices[i] * width) >> kCacheLineShift, and an element on the
// line of the element before it is a coalesced touch (AccessGather).
// WalkNewLines calls `walk(line)` for each element in a prefix of [0,
// count) whose line differs from its predecessor's (`prev_line` before
// the first), updates `prev_line`, and returns the prefix length: none in
// scalar code, whole blocks of four with AVX2.
// ---------------------------------------------------------------------------

template <class Walk>
size_t WalkNewLines(ScalarIsa, uint64_t, uint32_t, const uint32_t*, size_t,
                    uint64_t&, const Walk&) {
  return 0;
}

#if defined(NIPO_SIMD_AVX2)

// Four elements' lines in 64-bit lanes (a 32 x 32-bit lane multiply is
// exact), compared with the lines one lane before; only elements that
// start a new line leave the vector registers.
template <class Walk>
__attribute__((target("avx2"))) size_t WalkNewLines(
    Avx2Isa, uint64_t addr, uint32_t width, const uint32_t* indices,
    size_t count, uint64_t& prev_line, const Walk& walk) {
  const __m256i base = _mm256_set1_epi64x(static_cast<long long>(addr));
  const __m256i scale = _mm256_set1_epi64x(width);
  const __m128i bits = _mm_cvtsi32_si128(kCacheLineShift);
  __m256i prev = _mm256_set1_epi64x(static_cast<long long>(prev_line));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i rows = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(indices + i)));
    const __m256i lines = _mm256_srl_epi64(
        _mm256_add_epi64(base, _mm256_mul_epu32(rows, scale)), bits);
    const __m256i before = _mm256_blend_epi32(
        _mm256_permute4x64_epi64(lines, 0x93), prev, 0x03);
    const auto fresh = static_cast<uint32_t>(
        ~_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(lines, before))) &
        0xF);
    prev = _mm256_permute4x64_epi64(lines, 0xFF);
    if (fresh == 0) continue;
    alignas(32) uint64_t line[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(line), lines);
    for (uint32_t m = fresh; m != 0; m &= m - 1) {
      walk(line[std::countr_zero(m)]);
    }
  }
  prev_line = static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm256_castsi256_si128(prev)));
  return i;
}

#endif  // NIPO_SIMD_AVX2

// ---------------------------------------------------------------------------
// One body per level operation and for the hierarchy's demand path,
// templated on the ISA tag and entered through Run: the AVX2 entry is a
// target("avx2") function that flattens every walk it reaches into
// itself, so each AVX2 entry is one function and no shared inline or
// template symbol is compiled for AVX2.
// ---------------------------------------------------------------------------

// The entries take `fn` by reference: a closure passed by value is
// written to the stack in words and read back wider, a store-forwarding
// stall on every single-line call.
template <class Fn>
__attribute__((flatten)) auto RunScalar(const Fn& fn) {
  return fn(ScalarIsa{});
}

#if defined(NIPO_SIMD_AVX2)
template <class Fn>
__attribute__((target("avx2"), flatten)) auto RunAvx2(const Fn& fn) {
  return fn(Avx2Isa{});
}
#endif

// `fn(isa)` on the AVX2 walks iff `avx2`.
template <class Fn>
auto Run([[maybe_unused]] bool avx2, const Fn& fn) {
#if defined(NIPO_SIMD_AVX2)
  if (avx2) return RunAvx2(fn);
#endif
  return RunScalar(fn);
}

// CacheLevel::AccessFill's body.
template <class Isa>
bool DemandFill(CacheLevel::State& s, HashedLine line,
                bool* was_prefetched) {
  const size_t set = line.hash & s.set_mask;
  const SetWalk walk = WalkSet(Isa{}, s, set, line.line, /*refresh_hit=*/true);
  const uint32_t bit = uint32_t{1} << walk.way;
  if (walk.hit) {
    ++s.hits;
    if (was_prefetched != nullptr) {
      *was_prefetched = (s.prefetched[set] & bit) != 0;
      s.prefetched[set] &= ~bit;
    }
    return true;
  }
  ++s.misses;
  s.tags[set * s.stride + walk.way] = line.line;
  s.prefetched[set] &= ~bit;
  return false;
}

// CacheLevel::FillIfAbsent's body.
template <class Isa>
bool PrefetchFill(CacheLevel::State& s, HashedLine line) {
  const size_t set = line.hash & s.set_mask;
  const SetWalk walk =
      WalkSet(Isa{}, s, set, line.line, /*refresh_hit=*/false);
  if (walk.hit) return true;
  s.tags[set * s.stride + walk.way] = line.line;
  s.prefetched[set] |= uint32_t{1} << walk.way;
  return false;
}

// CacheLevel::AccessFillOwned's body.
template <class Isa>
CacheLevel::OwnedAccess OwnedFill(CacheLevel::State& s,
                                  uint32_t* owners, HashedLine line,
                                  uint32_t owner) {
  const size_t set = line.hash & s.set_mask;
  const SetWalk walk = WalkSet(Isa{}, s, set, line.line, /*refresh_hit=*/true);
  const size_t slot = set * s.stride + walk.way;
  CacheLevel::OwnedAccess out;
  if (walk.hit) {
    ++s.hits;
    out.hit = true;
    out.prev_owner = owners[slot];
    owners[slot] = owner;  // last accessor owns (no prefetched-mark
                           // change, matching AccessFill without
                           // was_prefetched)
    return out;
  }
  ++s.misses;
  if (s.tags[slot] != kEmptyTag) {
    out.displaced = true;
    out.victim_owner = owners[slot];
  }
  s.tags[slot] = line.line;
  s.prefetched[set] &= ~(uint32_t{1} << walk.way);
  owners[slot] = owner;
  return out;
}

// A hierarchy's demand-path state: its members, by reference.
struct DemandWalk {
  CacheLevel::State& l1;
  CacheLevel::State& l2;
  CacheLevel::State& l3;
  SharedCacheDomain* shared_l3;
  uint32_t shared_owner;
  CacheStats& stats;
  uint64_t& prefetched_line;
  uint64_t& prefetched_hash;
};

// L3 probe-and-fill: the private level, or the shared domain if attached.
// Returns true on hit.
template <class Isa>
bool AccessL3(DemandWalk& w, HashedLine line) {
  if (w.shared_l3 != nullptr) {
    return w.shared_l3->AccessFill(w.shared_owner, line);
  }
  return DemandFill<Isa>(w.l3, line, nullptr);
}

// Prefetch path: brings the line into L2+L3 (not L1), counting an L3
// access (and miss, if absent).
template <class Isa>
void Prefetch(DemandWalk& w, uint64_t line_addr) {
  const HashedLine line(line_addr);
  w.prefetched_line = line.line;
  w.prefetched_hash = line.hash;
  if (PrefetchFill<Isa>(w.l2, line)) {
    return;  // already resident; hardware squashes the request
  }
  ++w.stats.prefetch_requests;
  ++w.stats.l3_accesses;
  if (!AccessL3<Isa>(w, line)) {
    ++w.stats.l3_misses;
  }
}

// Demand path for one line; fills all levels (inclusive). Every level
// masks its set from the one hash per line, and a line the last prefetch
// requested reuses that prefetch's hash.
template <class Isa>
MemoryLevel DemandLine(DemandWalk& w, uint64_t line_addr) {
  const HashedLine line = line_addr == w.prefetched_line
                              ? HashedLine(line_addr, w.prefetched_hash)
                              : HashedLine(line_addr);
  ++w.stats.l1_accesses;
  if (DemandFill<Isa>(w.l1, line, nullptr)) {
    return MemoryLevel::kL1;
  }
  ++w.stats.l1_misses;
  ++w.stats.l2_accesses;
  bool was_prefetched = false;
  if (DemandFill<Isa>(w.l2, line, &was_prefetched)) {
    // First demand use of a prefetched line: the stream prefetcher keeps
    // running ahead (stream continuation).
    if (was_prefetched) {
      Prefetch<Isa>(w, line.line + 1);
    }
    return MemoryLevel::kL2;
  }
  ++w.stats.l2_misses;
  ++w.stats.l3_accesses;
  MemoryLevel served = MemoryLevel::kL3;
  if (!AccessL3<Isa>(w, line)) {
    ++w.stats.l3_misses;
    served = MemoryLevel::kMemory;
  }
  // L2 demand miss: the next-line prefetcher kicks in (Section 2.2.2 /
  // 3.1 of the paper: prefetch requests count as L3 accesses).
  Prefetch<Isa>(w, line.line + 1);
  return served;
}

}  // namespace

CacheLevel::CacheLevel(CacheGeometry geometry)
    : geometry_(geometry),
      num_sets_(geometry.num_sets()),
      ways_(geometry.associativity) {
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
  avx2_ = simd::ActiveLevel() == simd::SimdLevel::kAvx2;
  state_.set_mask = num_sets_ - 1;
  state_.stride = ways_ <= 16 ? 16 : 32;
  state_.match_ways = ways_ <= 8 ? 8 : state_.stride;
  state_.oldest_rank = static_cast<int8_t>(ways_ - 1);
  state_.tags.resize(num_sets_ * state_.stride);
  state_.ranks.resize(num_sets_ * state_.stride);
  state_.prefetched.resize(num_sets_);
  Clear();
}

bool CacheLevel::AccessFill(HashedLine line, bool* was_prefetched) {
  NIPO_DCHECK(line.line != kEmptyTag);
  return Run(avx2_, [&](auto isa) {
    return DemandFill<decltype(isa)>(state_, line, was_prefetched);
  });
}

CacheLevel::OwnedAccess CacheLevel::AccessFillOwned(HashedLine line,
                                                    uint32_t owner) {
  NIPO_DCHECK(line.line != kEmptyTag);
  if (owners_.empty()) owners_.resize(state_.tags.size());
  uint32_t* owners = owners_.data();
  return Run(avx2_, [&](auto isa) {
    return OwnedFill<decltype(isa)>(state_, owners, line, owner);
  });
}

uint64_t CacheLevel::occupied_lines() const {
  uint64_t n = 0;
  for (const uint64_t tag : state_.tags) n += tag != kEmptyTag;
  return n;
}

bool CacheLevel::FillIfAbsent(HashedLine line) {
  NIPO_DCHECK(line.line != kEmptyTag);
  return Run(avx2_, [&](auto isa) {
    return PrefetchFill<decltype(isa)>(state_, line);
  });
}

bool CacheLevel::Contains(HashedLine line) const {
  const uint64_t* tags = &state_.tags[SetIndex(line.hash) * state_.stride];
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
  int8_t* ranks = state_.ranks.data();
  for (uint64_t set = 0; set < num_sets_; ++set, ranks += state_.stride) {
    std::memcpy(ranks, pattern.data(), state_.stride);
  }
  std::fill(state_.tags.begin(), state_.tags.end(), kEmptyTag);
  std::fill(state_.prefetched.begin(), state_.prefetched.end(), 0u);
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
                               CacheGeometry l3)
    : l1_(l1),
      l2_(l2),
      l3_(l3),
      avx2_(simd::ActiveLevel() == simd::SimdLevel::kAvx2) {}

template <class Fn>
auto CacheHierarchy::Walk(const Fn& fn) {
  DemandWalk w{l1_.state_,     l2_.state_, l3_.state_,
               shared_l3_,     shared_owner_, stats_,
               prefetched_line_, prefetched_hash_};
  return Run(avx2_, [&w, &fn](auto isa) { return fn(isa, w); });
}

MemoryLevel CacheHierarchy::Access(uint64_t addr, uint32_t width) {
  const uint64_t first_line = LineOf(addr);
  const uint64_t last_line = LineOf(addr + (width > 0 ? width - 1 : 0));
  MemoryLevel deepest = AccessLine(first_line);
  for (uint64_t l = first_line + 1; l <= last_line; ++l) {
    AccessLine(l);
  }
  return deepest;
}

MemoryLevel CacheHierarchy::AccessLine(uint64_t line_addr) {
  return Walk([line_addr](auto isa, DemandWalk& w) {
    return DemandLine<decltype(isa)>(w, line_addr);
  });
}

void CacheHierarchy::AccessRun(uint64_t first_line, uint64_t last_line,
                               uint64_t served[4]) {
  Walk([first_line, last_line, served](auto isa, DemandWalk& w) {
    for (uint64_t l = first_line; l <= last_line; ++l) {
      ++served[static_cast<int>(DemandLine<decltype(isa)>(w, l))];
    }
  });
}

uint64_t CacheHierarchy::AccessGather(uint64_t addr, uint32_t width,
                                      const uint32_t* indices, size_t count,
                                      uint64_t served[4]) {
  return Walk([addr, width, indices, count, served](auto isa,
                                                    DemandWalk& w) {
    uint64_t walked = 0;
    const auto walk = [&](uint64_t line) {
      ++served[static_cast<int>(DemandLine<decltype(isa)>(w, line))];
      ++walked;
    };
    uint64_t prev_line = ~uint64_t{0};
    size_t i =
        WalkNewLines(isa, addr, width, indices, count, prev_line, walk);
    for (; i < count; ++i) {
      const uint64_t l =
          LineOf(addr + static_cast<uint64_t>(indices[i]) * width);
      if (l != prev_line) {
        walk(l);
        prev_line = l;
      }
    }
    return count - walked;
  });
}

}  // namespace nipo
