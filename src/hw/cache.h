#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"

/// \file cache.h
/// Simulated multi-level cache hierarchy.
///
/// The paper samples the number of L3 cache accesses -- demand requests
/// from the upper levels plus prefetch requests -- as one of its four
/// monitored events (Section 2.2.2), and its cache cost model (Section
/// 3.1) is a model of exactly this mechanism: line-granularity transfers
/// through an inclusive L1/L2/L3 hierarchy with a next-line prefetcher.
/// This module simulates that mechanism with set-associative LRU caches so
/// the executor produces the same counter stream a real PMU would, in a
/// fully deterministic way.

namespace nipo {

/// Which level of the hierarchy served an access.
enum class MemoryLevel : int {
  kL1 = 0,
  kL2 = 1,
  kL3 = 2,
  kMemory = 3,
};

/// log2 of the line size: a byte address's line index is `addr >>
/// kCacheLineShift`.
inline constexpr int kCacheLineShift = 6;
/// Bytes per cache line at every level, as on the paper's Xeon.
inline constexpr uint32_t kCacheLineBytes = 1u << kCacheLineShift;

/// \brief Geometry of one cache level.
struct CacheGeometry {
  uint64_t capacity_bytes = 32 * 1024;
  uint32_t associativity = 8;

  uint64_t num_lines() const { return capacity_bytes / kCacheLineBytes; }
  uint64_t num_sets() const { return num_lines() / associativity; }
};

/// \brief A line address together with its set-index hash.
///
/// Every level maps a line to a set by masking the same splitmix64 hash
/// (set counts are powers of two, see CacheLevel), so the hierarchy
/// hashes each line once and hands the pair to every level it walks.
/// Implicitly constructible from a bare line address for callers that
/// touch a single level. The all-ones line address is reserved: it marks
/// an empty way.
struct HashedLine {
  HashedLine(uint64_t line_addr)  // NOLINT(google-explicit-constructor)
      : line(line_addr), hash(Hash(line_addr)) {}
  /// A pair whose hash is already known; `line_hash` must be
  /// Hash(line_addr) (the hierarchy carries a prefetched line's hash into
  /// its next demand).
  HashedLine(uint64_t line_addr, uint64_t line_hash)
      : line(line_addr), hash(line_hash) {}

  /// splitmix64 finalizer. Plain modulo mapping makes equally-aligned
  /// column allocations -- page-aligned vectors all place row i in the
  /// same set -- thrash any set once the stream count exceeds the
  /// associativity ("4K aliasing"). Real LLCs hash the set index for the
  /// same reason; hashing also decouples the simulation from accidental
  /// heap-layout choices.
  static uint64_t Hash(uint64_t line_addr) {
    uint64_t z = line_addr + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  uint64_t line;
  uint64_t hash;
};

/// \brief One set-associative, true-LRU cache level, tracked at line
/// granularity.
///
/// Each set keeps its tags contiguous, padded with empty tags to a stride
/// of 16 ways (32 when the normalized way count exceeds 16), so a tag
/// match is a few 4-lane compares. Recency is a per-way 8-bit rank: 0 is
/// the most recent way, `ways - 1` the LRU victim (DESIGN.md Section 4,
/// "One hash per line, rank-LRU set walks, one demand path per ISA"). The
/// AVX2 or scalar set walk is chosen once, at construction, from
/// simd::ActiveLevel(); both give identical results.
class CacheLevel {
 public:
  explicit CacheLevel(CacheGeometry geometry);

  const CacheGeometry& geometry() const { return geometry_; }

  /// Demand-path probe-and-fill in one set walk: on hit refreshes LRU,
  /// counts the hit, optionally consumes the prefetched mark into
  /// `*was_prefetched`, and returns true; on miss counts it, installs the
  /// line over the first-empty-else-LRU victim, and returns false.
  bool AccessFill(HashedLine line, bool* was_prefetched = nullptr);

  /// Prefetch-path probe-and-fill: returns true and does nothing when the
  /// line is resident (the hardware squashes the request; deliberately no
  /// LRU refresh, like Contains); otherwise installs the line with the
  /// prefetched mark -- the first demand hit consumes it (AccessFill's
  /// `was_prefetched`) -- and returns false. Touches no hit/miss
  /// counters.
  bool FillIfAbsent(HashedLine line);

  /// What an owner-tagged access observed (shared levels only; see
  /// SharedCacheDomain).
  struct OwnedAccess {
    bool hit = false;
    uint32_t prev_owner = 0;  ///< owner the hit line belonged to before
    bool displaced = false;   ///< a resident line was evicted by the fill
    uint32_t victim_owner = 0;  ///< owner of the displaced line
  };

  /// Owner-tagged variant of AccessFill for a level shared between
  /// machines: on hit, refreshes LRU, counts the hit, reports the line's
  /// previous owner and re-tags it to `owner` (last accessor owns); on
  /// miss, counts it, installs the line tagged `owner`, and reports
  /// whether a resident line was displaced and whose it was. With a
  /// single owner this is hit/miss- and LRU-identical to AccessFill
  /// (same set walk, same victim choice) — the contention=off
  /// bit-equality gates rely on that.
  OwnedAccess AccessFillOwned(HashedLine line, uint32_t owner);

  /// Number of currently resident lines (full scan; audit/test use).
  uint64_t occupied_lines() const;

  /// True iff the line is currently resident (no LRU update; audit/test
  /// use).
  bool Contains(HashedLine line) const;

  /// Drops all contents.
  void Clear();

  /// The set a line maps to. Exposed so tests can construct colliding
  /// and non-colliding line addresses.
  size_t SetOf(uint64_t line_addr) const {
    return SetIndex(HashedLine::Hash(line_addr));
  }

  /// Credits `n` coalesced same-line touches as hits without re-running
  /// the set walk. Exact by construction: the batched reporting layer
  /// only coalesces touches of the line accessed immediately before,
  /// which a replayed walk would classify as a hit with certainty (the
  /// line was just installed/refreshed and nothing intervened; see
  /// DESIGN.md "Batched simulation"). Skipping the LRU refresh is equally
  /// exact: the line already holds rank 0, and refreshing a rank-0 way
  /// changes no rank.
  void AddCoalescedHits(uint64_t n) { state_.hits += n; }

  /// Number of sets after power-of-two normalization (see constructor).
  uint64_t num_sets() const { return num_sets_; }
  uint32_t ways() const { return ways_; }

  uint64_t hits() const { return state_.hits; }
  uint64_t misses() const { return state_.misses; }
  uint64_t accesses() const { return state_.hits + state_.misses; }
  void ResetStats() { state_.hits = state_.misses = 0; }

  /// Largest normalized way count a level supports (the wide stride).
  static constexpr uint32_t kMaxWays = 32;

  /// Everything a level's set walks read and write: the set arrays, the
  /// shape, and the hit/miss counts. The walks in cache.cc take it by
  /// reference and load a field only where they use it, so a hierarchy
  /// walk that ends in L1 reads nothing of L2 and L3.
  struct State {
    std::vector<uint64_t> tags;  ///< num_sets * stride; pads hold the empty tag
    std::vector<int8_t> ranks;   ///< num_sets * stride; see Clear()
    std::vector<uint32_t> prefetched;  ///< per set: bit w = way w's mark
    uint64_t set_mask = 0;
    uint32_t stride = 0;      ///< tag/rank slots per set: 16 or 32
    uint32_t match_ways = 0;  ///< slots the AVX2 tag match covers: 8, 16 or 32
    int8_t oldest_rank = 0;   ///< ways - 1, the victim's rank
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

 private:
  friend class CacheHierarchy;

  static constexpr uint64_t kEmptyTag = ~uint64_t{0};

  /// Set index of a line hash. The set count is a power of two (see the
  /// constructor), so the reduction is a mask.
  size_t SetIndex(uint64_t hash) const {
    return static_cast<size_t>(hash & state_.set_mask);
  }

  CacheGeometry geometry_;
  uint64_t num_sets_;
  uint32_t ways_;
  bool avx2_;  ///< set walk chosen at construction
  State state_;
  // Owner id per slot; sized by the first AccessFillOwned, so private
  // levels never allocate it.
  std::vector<uint32_t> owners_;
};

/// \brief Counters accumulated by the hierarchy. "L3 accesses" follows the
/// paper's definition: demand requests that reach L3 plus prefetcher
/// requests (Section 2.2.2).
struct CacheStats {
  uint64_t l1_accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_accesses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_accesses = 0;
  uint64_t l3_misses = 0;
  uint64_t prefetch_requests = 0;

  CacheStats& operator-=(const CacheStats& other);
  CacheStats operator-(const CacheStats& other) const;
};

/// \brief Three-level inclusive hierarchy with a streaming next-line
/// prefetcher, always on (the paper's cache model assumes it).
///
/// The prefetcher models the paper's key cache-model refinement: on an L2
/// demand miss for line X -- or the first demand use of a line it
/// prefetched itself (stream continuation) -- it issues a request for
/// line X+1. A sequential scan therefore pays one L3 access per line and
/// is served from L2 after the first line (the latency-hidden streaming
/// of real hardware), while a scan that *skips* lines pays two L3
/// accesses per touched line -- the wasted prefetch plus the demand fetch
/// -- which is precisely the "double counted random miss" the paper adds
/// to Pirk et al.'s model (Section 3.1).
class SharedCacheDomain;

class CacheHierarchy {
 public:
  CacheHierarchy(CacheGeometry l1, CacheGeometry l2, CacheGeometry l3);

  /// Routes this hierarchy's L3 fills (demand and prefetch) through a
  /// shared domain under `owner`'s id; L1/L2 stay private. The private
  /// L3 level is bypassed while attached. Pass nullptr to detach. The
  /// hierarchy's own stats_ keep counting l3_accesses/l3_misses, so the
  /// owning machine's counters stay per-owner automatically. Note the
  /// model keeps no back-invalidation: lines another owner evicts from
  /// the shared L3 may linger in this hierarchy's private L2 (documented
  /// simplification, DESIGN.md Section 6).
  void AttachSharedL3(SharedCacheDomain* domain, uint32_t owner) {
    shared_l3_ = domain;
    shared_owner_ = owner;
  }
  bool shared_l3_attached() const { return shared_l3_ != nullptr; }

  /// Performs a demand load of `width` bytes at `addr`. Accesses that
  /// straddle a line boundary touch both lines. Returns the deepest level
  /// that had to be consulted for the first touched line.
  MemoryLevel Access(uint64_t addr, uint32_t width);

  /// Demand load of one line (a line index, not a byte address).
  MemoryLevel AccessLine(uint64_t line_addr);

  /// Demand loads of the lines `first_line..last_line`, in order, adding
  /// one to `served[level]` per line for the level that served it.
  void AccessRun(uint64_t first_line, uint64_t last_line, uint64_t served[4]);

  /// Demand loads of the `width`-byte elements at `addr + indices[i] *
  /// width`, in order, adding to `served` like AccessRun. A touch of the
  /// line touched immediately before is not walked; returns the number
  /// of such coalesced touches, which the caller books as L1 hits
  /// (CountCoalescedL1Hits). The elements must not straddle lines:
  /// `width` divides the line size and `addr` is `width`-aligned.
  uint64_t AccessGather(uint64_t addr, uint32_t width,
                        const uint32_t* indices, size_t count,
                        uint64_t served[4]);

  /// Books `n` coalesced touches of the line accessed immediately before:
  /// counts them as L1 accesses served by L1 hits without walking the
  /// hierarchy. Only the batched reporting layer calls this, and only for
  /// touches a scalar replay would classify as certain L1 hits (see
  /// CacheLevel::AddCoalescedHits for the invariance argument).
  void CountCoalescedL1Hits(uint64_t n) {
    stats_.l1_accesses += n;
    l1_.AddCoalescedHits(n);
  }

  const CacheStats& stats() const { return stats_; }

  /// Line index of a byte address.
  static uint64_t LineOf(uint64_t addr) { return addr >> kCacheLineShift; }

  const CacheLevel& l1() const { return l1_; }
  const CacheLevel& l2() const { return l2_; }
  const CacheLevel& l3() const { return l3_; }

 private:
  /// Returns `fn(isa, walk)` run on the demand path of the ISA chosen at
  /// construction (defined in cache.cc, its only user).
  template <class Fn>
  auto Walk(const Fn& fn);

  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel l3_;
  bool avx2_;  ///< demand path chosen at construction
  CacheStats stats_;
  SharedCacheDomain* shared_l3_ = nullptr;
  uint32_t shared_owner_ = 0;
  // The line the last prefetch requested and its hash, which the next
  // demand reuses when it is for that line (a pure function of the line,
  // so it never goes stale). The all-ones line is never demanded.
  uint64_t prefetched_line_ = ~uint64_t{0};
  uint64_t prefetched_hash_ = 0;
};

}  // namespace nipo
