/// Differential test of the cache simulation against a reference model.
///
/// The reference is the plain stamp-based set-associative LRU level the
/// simulator used before its rank-LRU set walks: 24-byte ways carrying a
/// tag, a global-clock stamp, the prefetched mark and the owner, a linear
/// scan that stops at the first matching or empty way, and a
/// first-empty-else-minimum-stamp victim. Every CacheLevel entry point,
/// every geometry the repository builds and both SIMD levels must agree
/// with it access for access, and a Pmu replaying Q6-shaped load streams
/// at fixed (never dereferenced) addresses must produce the reference's
/// PmuCounters field for field, also with two machines sharing one L3.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/prng.h"
#include "exec/simd.h"
#include "hw/cache.h"
#include "hw/pmu.h"
#include "hw/shared_cache.h"

namespace nipo {
namespace {

constexpr uint64_t kEmpty = ~uint64_t{0};

class ReferenceLevel {
 public:
  ReferenceLevel(uint64_t num_sets, uint32_t ways)
      : ways_(ways), set_mask_(num_sets - 1), slots_(num_sets * ways) {}

  bool AccessFill(uint64_t line, bool* was_prefetched = nullptr) {
    bool hit = false;
    Way* way = Find(line, &hit);
    way->stamp = ++tick_;
    if (hit) {
      ++hits_;
      if (was_prefetched != nullptr) {
        *was_prefetched = way->prefetched;
        way->prefetched = false;
      }
      return true;
    }
    ++misses_;
    way->tag = line;
    way->prefetched = false;
    return false;
  }

  bool FillIfAbsent(uint64_t line) {
    bool hit = false;
    Way* way = Find(line, &hit);
    if (hit) return true;
    way->tag = line;
    way->stamp = ++tick_;
    way->prefetched = true;
    return false;
  }

  CacheLevel::OwnedAccess AccessFillOwned(uint64_t line, uint32_t owner) {
    bool hit = false;
    Way* way = Find(line, &hit);
    way->stamp = ++tick_;
    CacheLevel::OwnedAccess out;
    if (hit) {
      ++hits_;
      out.hit = true;
      out.prev_owner = way->owner;
      way->owner = owner;
      return out;
    }
    ++misses_;
    if (way->tag != kEmpty) {
      out.displaced = true;
      out.victim_owner = way->owner;
    }
    way->tag = line;
    way->prefetched = false;
    way->owner = owner;
    return out;
  }

  bool Contains(uint64_t line) {
    bool hit = false;
    Find(line, &hit);
    return hit;
  }

  uint64_t occupied_lines() const {
    return static_cast<uint64_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const Way& w) { return w.tag != kEmpty; }));
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Way{});
    tick_ = 0;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Way {
    uint64_t tag = kEmpty;
    uint64_t stamp = 0;
    bool prefetched = false;
    uint32_t owner = 0;
  };

  /// The hit way, else the first empty way, else the least recently
  /// stamped one.
  Way* Find(uint64_t line, bool* hit) {
    Way* set = &slots_[(HashedLine::Hash(line) & set_mask_) * ways_];
    Way* victim = set;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (set[w].tag == line) {
        *hit = true;
        return &set[w];
      }
      if (set[w].tag == kEmpty) return &set[w];
      if (set[w].stamp < victim->stamp) victim = &set[w];
    }
    return victim;
  }

  uint32_t ways_;
  uint64_t set_mask_;
  std::vector<Way> slots_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Every geometry the repository builds: the three levels of the full
/// Xeon and of each ScaledXeon divisor in use (the largest divisor's L3
/// is one set of 20 ways, the wide-stride path), the indivisible
/// {1920, 3} level, and the test geometries of cache_test,
/// cache_model_test and pipeline_fuzz_test.
std::vector<CacheGeometry> AllGeometries() {
  std::vector<CacheGeometry> out;
  auto add = [&out](CacheGeometry g) {
    for (const CacheGeometry& have : out) {
      if (have.capacity_bytes == g.capacity_bytes &&
          have.associativity == g.associativity) {
        return;
      }
    }
    out.push_back(g);
  };
  for (const uint64_t d : {1ull, 4ull, 8ull, 15ull, 16ull, 32ull, 64ull,
                           128ull, 1024ull, 1'000'000ull}) {
    const HwConfig cfg = HwConfig::ScaledXeon(d);
    add(cfg.l1);
    add(cfg.l2);
    add(cfg.l3);
  }
  add({1920, 3});
  add({20 * 64, 20});
  for (const CacheGeometry g :
       {CacheGeometry{1024, 2}, CacheGeometry{4096, 4},
        CacheGeometry{16384, 4}, CacheGeometry{8 * 1024, 8},
        CacheGeometry{64 * 1024, 8}, CacheGeometry{1024 * 1024, 16},
        CacheGeometry{16 * 1024, 4}}) {
    add(g);
  }
  return out;
}

enum class Stream { kRandom, kStreaming, kColliding };

/// A line stream of the given shape over `level`'s sets.
class LineSource {
 public:
  LineSource(Stream kind, const CacheLevel& level, uint64_t seed)
      : kind_(kind), prng_(seed) {
    const uint64_t lines = level.num_sets() * level.ways();
    span_ = 4 * lines + 8;
    if (kind_ == Stream::kColliding) {
      // Three ways' worth of lines per set, over at most two sets.
      const size_t target_a = level.SetOf(0);
      const size_t target_b = level.SetOf(1);
      for (uint64_t line = 0; pool_.size() < 3 * level.ways() * 2; ++line) {
        const size_t set = level.SetOf(line);
        if (set == target_a || set == target_b) pool_.push_back(line);
      }
    }
  }

  uint64_t Next() {
    switch (kind_) {
      case Stream::kRandom:
        return prng_.NextBounded(span_);
      case Stream::kStreaming:
        // Mostly the next line, sometimes a repeat or a jump.
        if (prng_.NextBool(0.05)) {
          next_ = prng_.NextBounded(span_);
        } else if (!prng_.NextBool(0.2)) {
          ++next_;
        }
        return next_;
      case Stream::kColliding:
        return pool_[prng_.NextBounded(pool_.size())];
    }
    return 0;
  }

 private:
  Stream kind_;
  Prng prng_;
  uint64_t span_ = 0;
  uint64_t next_ = 0;
  std::vector<uint64_t> pool_;
};

class SimdLevelTest : public ::testing::TestWithParam<simd::SimdLevel> {
 protected:
  void SetUp() override {
    if (GetParam() == simd::SimdLevel::kAvx2 && !simd::Avx2Available()) {
      GTEST_SKIP() << "AVX2 not available on this host/build";
    }
    simd::ForceLevel(GetParam());
  }
  void TearDown() override { simd::ResetForcedLevel(); }
};

void Replay(const CacheGeometry& geometry, Stream kind, uint64_t seed,
            int ops) {
  CacheLevel level(geometry);
  ReferenceLevel ref(level.num_sets(), level.ways());
  LineSource source(kind, level, seed);
  Prng prng(seed * 7 + 1);
  const std::string where = "capacity=" +
                            std::to_string(geometry.capacity_bytes) +
                            " assoc=" + std::to_string(geometry.associativity) +
                            " stream=" + std::to_string(static_cast<int>(kind));
  for (int i = 0; i < ops; ++i) {
    const uint64_t line = source.Next();
    const uint64_t op = prng.NextBounded(100);
    if (op < 30) {
      ASSERT_EQ(level.AccessFill(line), ref.AccessFill(line))
          << where << " op " << i;
    } else if (op < 50) {
      bool got = false, want = false;
      ASSERT_EQ(level.AccessFill(line, &got), ref.AccessFill(line, &want))
          << where << " op " << i;
      ASSERT_EQ(got, want) << where << " op " << i;
    } else if (op < 70) {
      ASSERT_EQ(level.FillIfAbsent(line), ref.FillIfAbsent(line))
          << where << " op " << i;
    } else if (op < 85) {
      const uint32_t owner = static_cast<uint32_t>(prng.NextBounded(4));
      const CacheLevel::OwnedAccess got = level.AccessFillOwned(line, owner);
      const CacheLevel::OwnedAccess want = ref.AccessFillOwned(line, owner);
      ASSERT_EQ(got.hit, want.hit) << where << " op " << i;
      ASSERT_EQ(got.prev_owner, want.prev_owner) << where << " op " << i;
      ASSERT_EQ(got.displaced, want.displaced) << where << " op " << i;
      ASSERT_EQ(got.victim_owner, want.victim_owner) << where << " op " << i;
    } else if (op < 99) {
      ASSERT_EQ(level.Contains(line), ref.Contains(line))
          << where << " op " << i;
    } else if (prng.NextBool(0.01)) {
      level.Clear();
      ref.Clear();
    }
    if (i % 512 == 0) {
      ASSERT_EQ(level.occupied_lines(), ref.occupied_lines())
          << where << " op " << i;
    }
  }
  EXPECT_EQ(level.hits(), ref.hits()) << where;
  EXPECT_EQ(level.misses(), ref.misses()) << where;
  EXPECT_EQ(level.occupied_lines(), ref.occupied_lines()) << where;
}

TEST_P(SimdLevelTest, EveryEntryPointMatchesStampModel) {
  uint64_t seed = 1;
  for (const CacheGeometry& geometry : AllGeometries()) {
    for (const Stream kind :
         {Stream::kRandom, Stream::kStreaming, Stream::kColliding}) {
      Replay(geometry, kind, seed++, 40'000);
      if (HasFatalFailure()) return;
    }
  }
}

/// The stamp model of a SharedCacheDomain: one owner-tagged level and
/// the cross-owner eviction counts Pmu::Read reports.
struct ReferenceDomain {
  ReferenceDomain(uint64_t num_sets, uint32_t ways, size_t owners)
      : level(num_sets, ways), caused(owners), suffered(owners) {}

  bool AccessFill(uint64_t line, uint32_t owner) {
    const CacheLevel::OwnedAccess r = level.AccessFillOwned(line, owner);
    if (r.displaced && r.victim_owner != owner) {
      ++caused[owner];
      ++suffered[r.victim_owner];
    }
    return r.hit;
  }

  ReferenceLevel level;
  std::vector<uint64_t> caused;
  std::vector<uint64_t> suffered;
};

/// The stamp-model hierarchy: the demand and prefetch paths of
/// CacheHierarchy over reference levels, with the L3 private or, when
/// `shared` is given, the shared domain under `owner`.
class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const HwConfig& cfg,
                              ReferenceDomain* shared = nullptr,
                              uint32_t owner = 0)
      : l1_(Make(cfg.l1)),
        l2_(Make(cfg.l2)),
        l3_(Make(cfg.l3)),
        shared_(shared),
        owner_(owner) {}

  MemoryLevel Demand(uint64_t line, CacheStats* s) {
    ++s->l1_accesses;
    if (l1_.AccessFill(line)) return MemoryLevel::kL1;
    ++s->l1_misses;
    ++s->l2_accesses;
    bool was_prefetched = false;
    if (l2_.AccessFill(line, &was_prefetched)) {
      if (was_prefetched) Prefetch(line + 1, s);
      return MemoryLevel::kL2;
    }
    ++s->l2_misses;
    ++s->l3_accesses;
    MemoryLevel served = MemoryLevel::kL3;
    if (!AccessL3(line)) {
      ++s->l3_misses;
      served = MemoryLevel::kMemory;
    }
    Prefetch(line + 1, s);
    return served;
  }

 private:
  static ReferenceLevel Make(CacheGeometry g) {
    const CacheLevel shape(g);  // normalized set count and ways
    return ReferenceLevel(shape.num_sets(), shape.ways());
  }

  bool AccessL3(uint64_t line) {
    return shared_ != nullptr ? shared_->AccessFill(line, owner_)
                              : l3_.AccessFill(line);
  }

  void Prefetch(uint64_t line, CacheStats* s) {
    if (l2_.FillIfAbsent(line)) return;
    ++s->prefetch_requests;
    ++s->l3_accesses;
    if (!AccessL3(line)) ++s->l3_misses;
  }

  ReferenceLevel l1_, l2_, l3_;
  ReferenceDomain* shared_;
  uint32_t owner_;
};

/// One-load-at-a-time reference of the Pmu's load booking.
class ReferenceMachine {
 public:
  explicit ReferenceMachine(const HwConfig& cfg,
                            ReferenceDomain* shared = nullptr,
                            uint32_t owner = 0)
      : cfg_(cfg),
        caches_(cfg, shared, owner),
        shared_(shared),
        owner_(owner) {}

  void Load(uint64_t addr, uint32_t width) {
    ++instructions_;
    const uint64_t first = addr / 64;
    const uint64_t last = (addr + width - 1) / 64;
    ++served_[static_cast<int>(caches_.Demand(first, &stats_))];
    for (uint64_t l = first + 1; l <= last; ++l) caches_.Demand(l, &stats_);
  }

  PmuCounters Counters() const {
    PmuCounters c;
    c.instructions = instructions_;
    c.l1_accesses = stats_.l1_accesses;
    c.l1_misses = stats_.l1_misses;
    c.l2_accesses = stats_.l2_accesses;
    c.l2_misses = stats_.l2_misses;
    c.l3_accesses = stats_.l3_accesses;
    c.l3_misses = stats_.l3_misses;
    c.prefetch_requests = stats_.prefetch_requests;
    if (shared_ != nullptr) {
      c.l3_evictions_caused = shared_->caused[owner_];
      c.l3_evictions_suffered = shared_->suffered[owner_];
    }
    const CycleModel& m = cfg_.cycle_model;
    c.cycles = static_cast<uint64_t>(std::llround(
        m.l1_hit_cycles * static_cast<double>(served_[0]) +
        m.l2_hit_cycles * static_cast<double>(served_[1]) +
        m.l3_hit_cycles * static_cast<double>(served_[2]) +
        m.memory_cycles * static_cast<double>(served_[3])));
    return c;
  }

 private:
  HwConfig cfg_;
  ReferenceHierarchy caches_;
  ReferenceDomain* shared_;
  uint32_t owner_;
  CacheStats stats_;
  uint64_t instructions_ = 0;
  uint64_t served_[4] = {0, 0, 0, 0};
};

const void* FixedAddress(uint64_t addr) {
  return reinterpret_cast<const void*>(addr);
}

/// Q6-shaped load streams at fabricated column addresses (nothing is
/// dereferenced): a sequential int32 date scan per vector, gathers of
/// three double columns over a shrinking selection vector, and
/// random-row 8-byte probe gathers into a dimension column, at small row
/// indices and near 2^32.
TEST_P(SimdLevelTest, PmuCountersMatchAtFixedAddresses) {
  for (const uint64_t divisor : {16ull, 128ull}) {
    for (const ReportingMode mode :
         {ReportingMode::kBatched, ReportingMode::kScalar}) {
      const HwConfig cfg = HwConfig::ScaledXeon(divisor);
      Pmu pmu(cfg);
      pmu.set_reporting_mode(mode);
      ReferenceMachine ref(cfg);
      Prng prng(divisor);
      constexpr uint64_t kRows = 8'192;
      const uint64_t date_base = 0x7f10'0000'0000ull;
      const uint64_t column_base[3] = {0x7f20'0000'0040ull,
                                       0x7f30'0000'1000ull,
                                       0x7f40'0000'0008ull};
      const uint64_t probe_base = 0x7f50'0000'0010ull;
      std::vector<uint32_t> sel;
      for (uint64_t v = 0; v < 24; ++v) {
        const uint64_t dates = date_base + v * kRows * 4;
        pmu.OnSequentialLoads(FixedAddress(dates), 4, kRows);
        for (uint64_t i = 0; i < kRows; ++i) ref.Load(dates + i * 4, 4);
        sel.clear();
        const double pass = 0.02 + 0.04 * static_cast<double>(v % 12);
        for (uint32_t i = 0; i < kRows; ++i) {
          if (prng.NextBool(pass)) sel.push_back(i);
        }
        for (const uint64_t base : column_base) {
          const uint64_t col = base + v * kRows * 8;
          pmu.OnGatherLoads(FixedAddress(col), 8, sel.data(), sel.size());
          for (const uint32_t i : sel) ref.Load(col + uint64_t{i} * 8, 8);
          // The next predicate keeps a subset of the survivors.
          sel.erase(std::remove_if(sel.begin(), sel.end(),
                                   [&prng](uint32_t) {
                                     return prng.NextBool(0.3);
                                   }),
                    sel.end());
        }
        std::vector<uint32_t> rows(sel.size());
        for (uint32_t& r : rows) {
          r = static_cast<uint32_t>(prng.NextBounded(1 << 16));
        }
        pmu.OnGatherLoads(FixedAddress(probe_base), 8, rows.data(),
                          rows.size());
        for (const uint32_t r : rows) {
          ref.Load(probe_base + uint64_t{r} * 8, 8);
        }
        // Rows near 2^32, whose byte offsets a 32-bit product would wrap.
        for (uint32_t& r : rows) {
          r = ~uint32_t{0} - static_cast<uint32_t>(prng.NextBounded(1 << 12));
        }
        pmu.OnGatherLoads(FixedAddress(probe_base), 8, rows.data(),
                          rows.size());
        for (const uint32_t r : rows) {
          ref.Load(probe_base + uint64_t{r} * 8, 8);
        }
        ASSERT_EQ(pmu.Read(), ref.Counters())
            << "divisor=" << divisor << " vector=" << v << "\npmu: "
            << pmu.Read().ToString() << "\nref: " << ref.Counters().ToString();
      }
    }
  }
}

/// Two machines sharing one L3 (SharedCacheDomain) at fixed addresses:
/// owner 0 streams an int32 column sequentially while owner 1 gathers
/// random rows of an 8-byte dimension about the L3's size, vector by
/// vector in turn, so the owners keep evicting each other's lines. Both
/// machines must match a reference whose L3 is the stamp model's
/// owner-tagged level, eviction counters included, after every vector.
TEST_P(SimdLevelTest, SharedL3CountersMatchAtFixedAddresses) {
  for (const uint64_t divisor : {16ull, 128ull}) {
    for (const ReportingMode mode :
         {ReportingMode::kBatched, ReportingMode::kScalar}) {
      const HwConfig cfg = HwConfig::ScaledXeon(divisor);
      SharedCacheDomain domain(cfg.l3);
      Pmu scan(cfg), probe(cfg);
      scan.set_reporting_mode(mode);
      probe.set_reporting_mode(mode);
      scan.AttachSharedL3(&domain, domain.RegisterOwner("scan"));
      probe.AttachSharedL3(&domain, domain.RegisterOwner("probe"));
      const CacheLevel l3_shape(cfg.l3);
      ReferenceDomain ref_domain(l3_shape.num_sets(), l3_shape.ways(), 2);
      ReferenceMachine ref_scan(cfg, &ref_domain, 0);
      ReferenceMachine ref_probe(cfg, &ref_domain, 1);
      Prng prng(divisor + 7);
      constexpr uint64_t kRows = 4'096;
      const uint64_t scan_base = 0x7f60'0000'0000ull;
      const uint64_t dim_base = 0x7f70'0000'0040ull;
      // Dimension rows spanning about the L3's capacity in 8-byte values.
      const uint64_t dim_rows = l3_shape.num_sets() * l3_shape.ways() * 8;
      std::vector<uint32_t> rows(kRows / 4);
      for (uint64_t v = 0; v < 16; ++v) {
        const uint64_t col = scan_base + v * kRows * 4;
        scan.OnSequentialLoads(FixedAddress(col), 4, kRows);
        for (uint64_t i = 0; i < kRows; ++i) ref_scan.Load(col + i * 4, 4);
        for (uint32_t& r : rows) {
          r = static_cast<uint32_t>(prng.NextBounded(dim_rows));
        }
        probe.OnGatherLoads(FixedAddress(dim_base), 8, rows.data(),
                            rows.size());
        for (const uint32_t r : rows) ref_probe.Load(dim_base + r * 8ull, 8);
        ASSERT_EQ(scan.Read(), ref_scan.Counters())
            << "divisor=" << divisor << " vector=" << v << "\npmu: "
            << scan.Read().ToString()
            << "\nref: " << ref_scan.Counters().ToString();
        ASSERT_EQ(probe.Read(), ref_probe.Counters())
            << "divisor=" << divisor << " vector=" << v << "\npmu: "
            << probe.Read().ToString()
            << "\nref: " << ref_probe.Counters().ToString();
      }
      // The streams did contend: each owner evicted the other's lines.
      EXPECT_GT(scan.Read().l3_evictions_caused, 0u);
      EXPECT_GT(probe.Read().l3_evictions_caused, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothLevels, SimdLevelTest,
    ::testing::Values(simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2),
    [](const ::testing::TestParamInfo<simd::SimdLevel>& info) {
      return std::string(simd::SimdLevelName(info.param));
    });

TEST(CacheWayBoundTest, ScaledXeonConstructsAtEveryDivisor) {
  std::vector<uint64_t> divisors = {15};
  for (uint64_t d = 1; d <= 16'384; d *= 2) divisors.push_back(d);
  for (const uint64_t d : divisors) {
    const HwConfig cfg = HwConfig::ScaledXeon(d);
    for (const CacheGeometry& g : {cfg.l1, cfg.l2, cfg.l3}) {
      const CacheLevel level(g);
      EXPECT_LE(level.ways(), CacheLevel::kMaxWays) << "divisor " << d;
      EXPECT_LE(level.num_sets() * level.ways(), g.num_lines());
    }
  }
  // The largest divisors floor the L3 at one way group: one set of 20.
  const CacheLevel floor_l3(HwConfig::ScaledXeon(16'384).l3);
  EXPECT_EQ(floor_l3.num_sets(), 1u);
  EXPECT_EQ(floor_l3.ways(), 20u);
}

TEST(CacheWayBoundDeathTest, MoreThan32WaysIsRejected) {
  EXPECT_DEATH(CacheLevel(CacheGeometry{33 * 64, 33}), "NIPO_CHECK");
}

}  // namespace
}  // namespace nipo
