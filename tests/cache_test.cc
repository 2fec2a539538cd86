#include "hw/cache.h"

#include <gtest/gtest.h>

#include <vector>

namespace nipo {
namespace {

CacheGeometry Tiny(uint64_t capacity, uint32_t assoc) {
  return CacheGeometry{capacity, assoc};
}

TEST(CacheGeometryTest, DerivedQuantities) {
  CacheGeometry g{32 * 1024, 8};
  EXPECT_EQ(g.num_lines(), 512u);
  EXPECT_EQ(g.num_sets(), 64u);
}

TEST(CacheLevelTest, MissThenHit) {
  CacheLevel level(Tiny(1024, 2));  // 16 lines, 8 sets
  EXPECT_FALSE(level.AccessFill(5));  // miss installs the line
  EXPECT_TRUE(level.AccessFill(5));
  EXPECT_EQ(level.hits(), 1u);
  EXPECT_EQ(level.misses(), 1u);
}

/// First `count` line addresses mapping to the same set as `seed_line`.
std::vector<uint64_t> CollidingLines(const CacheLevel& level,
                                     uint64_t seed_line, size_t count) {
  std::vector<uint64_t> lines = {seed_line};
  const size_t target = level.SetOf(seed_line);
  for (uint64_t line = seed_line + 1; lines.size() < count; ++line) {
    if (level.SetOf(line) == target) lines.push_back(line);
  }
  return lines;
}

TEST(CacheLevelTest, LruEvictionWithinSet) {
  CacheLevel level(Tiny(1024, 2));  // 8 sets, 2 ways
  const auto lines = CollidingLines(level, 0, 3);
  EXPECT_FALSE(level.AccessFill(lines[0]));
  EXPECT_FALSE(level.AccessFill(lines[1]));
  EXPECT_TRUE(level.AccessFill(lines[0]));   // lines[0] becomes MRU
  EXPECT_FALSE(level.AccessFill(lines[2]));  // evicts lines[1] (LRU)
  EXPECT_TRUE(level.Contains(lines[0]));
  EXPECT_FALSE(level.Contains(lines[1]));
  EXPECT_TRUE(level.Contains(lines[2]));
}

TEST(CacheLevelTest, FillIfAbsentOnResidentLineDoesNotDuplicate) {
  CacheLevel level(Tiny(1024, 2));
  const auto lines = CollidingLines(level, 0, 3);
  EXPECT_FALSE(level.FillIfAbsent(lines[0]));
  EXPECT_TRUE(level.FillIfAbsent(lines[0]));  // resident: squashed
  EXPECT_FALSE(level.FillIfAbsent(lines[1]));
  EXPECT_FALSE(level.FillIfAbsent(lines[2]));  // one line evicted
  int resident = level.Contains(lines[0]) + level.Contains(lines[1]) +
                 level.Contains(lines[2]);
  EXPECT_EQ(resident, 2);
}

TEST(CacheLevelTest, DifferentSetsDoNotInterfere) {
  CacheLevel level(Tiny(1024, 2));
  // Pick one resident line per distinct set; they must all coexist.
  std::vector<uint64_t> lines;
  std::vector<bool> set_used(8, false);
  for (uint64_t line = 0; lines.size() < 8; ++line) {
    const size_t set = level.SetOf(line);
    if (!set_used[set]) {
      set_used[set] = true;
      lines.push_back(line);
    }
  }
  for (uint64_t line : lines) level.FillIfAbsent(line);
  for (uint64_t line : lines) {
    EXPECT_TRUE(level.Contains(line));
  }
}

TEST(CacheLevelTest, ClearDropsContents) {
  CacheLevel level(Tiny(1024, 2));
  level.AccessFill(3);
  level.Clear();
  EXPECT_FALSE(level.Contains(3));
}

TEST(CacheLevelTest, WorkingSetLargerThanLevelThrashes) {
  CacheLevel level(Tiny(16384, 4));
  const uint64_t capacity_lines = 16384 / kCacheLineBytes;  // 256
  const uint64_t working_lines = 4 * capacity_lines;
  // Two passes over 4x the capacity: the second pass still misses.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t line = 0; line < working_lines; ++line) {
      level.AccessFill(line);
    }
  }
  EXPECT_EQ(level.misses(), 2 * working_lines);
  EXPECT_EQ(level.hits(), 0u);
}

TEST(CacheLevelTest, WorkingSetWithinLevelHitsOnSecondPass) {
  CacheLevel level(Tiny(16384, 4));
  const uint64_t lines = 32;  // well inside the level's 256 lines
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t line = 0; line < lines; ++line) {
      level.AccessFill(line);
    }
  }
  EXPECT_EQ(level.misses(), lines);  // only the cold pass missed
  EXPECT_EQ(level.hits(), lines);
}

CacheHierarchy SmallHierarchy() {
  return CacheHierarchy(Tiny(1024, 2), Tiny(4096, 4), Tiny(16384, 4));
}

TEST(CacheHierarchyTest, ColdAccessMissesEverywhere) {
  CacheHierarchy h = SmallHierarchy();
  EXPECT_EQ(h.Access(0, 4), MemoryLevel::kMemory);
  EXPECT_EQ(h.stats().l1_misses, 1u);
  EXPECT_EQ(h.stats().l2_misses, 1u);
  // The demand miss and the next-line prefetch it triggers both miss L3.
  EXPECT_EQ(h.stats().l3_accesses, 2u);
  EXPECT_EQ(h.stats().l3_misses, 2u);
  EXPECT_EQ(h.stats().prefetch_requests, 1u);
}

TEST(CacheHierarchyTest, SecondAccessHitsL1) {
  CacheHierarchy h = SmallHierarchy();
  h.Access(0, 4);
  EXPECT_EQ(h.Access(4, 4), MemoryLevel::kL1);  // same line
  EXPECT_EQ(h.stats().l1_accesses, 2u);
  EXPECT_EQ(h.stats().l1_misses, 1u);
}

TEST(CacheHierarchyTest, InclusiveFill) {
  CacheHierarchy h = SmallHierarchy();
  h.Access(0, 4);
  EXPECT_TRUE(h.l1().Contains(0));
  EXPECT_TRUE(h.l2().Contains(0));
  EXPECT_TRUE(h.l3().Contains(0));
}

TEST(CacheHierarchyTest, L1EvictionFallsBackToL2) {
  CacheHierarchy h = SmallHierarchy();
  // L1 has 16 lines in 8 sets x 2 ways. Touch three lines of one L1 set:
  // the first is evicted from L1 but survives in L2.
  const auto lines = CollidingLines(h.l1(), 0, 3);
  for (uint64_t line : lines) h.Access(line * kCacheLineBytes, 4);
  EXPECT_EQ(h.Access(lines[0] * kCacheLineBytes, 4), MemoryLevel::kL2);
}

TEST(CacheHierarchyTest, StraddlingAccessTouchesBothLines) {
  CacheHierarchy h = SmallHierarchy();
  h.Access(60, 8);  // bytes 60..67: lines 0 and 1
  EXPECT_TRUE(h.l1().Contains(0));
  EXPECT_TRUE(h.l1().Contains(1));
  EXPECT_EQ(h.stats().l1_accesses, 2u);
}

TEST(CacheHierarchyTest, PrefetcherCountsL3Access) {
  CacheHierarchy h = SmallHierarchy();
  h.Access(0, 4);  // demand miss line 0 + prefetch line 1
  EXPECT_EQ(h.stats().prefetch_requests, 1u);
  EXPECT_EQ(h.stats().l3_accesses, 2u);
  EXPECT_TRUE(h.l2().Contains(1));
  EXPECT_FALSE(h.l1().Contains(1));  // prefetch fills L2/L3, not L1
}

TEST(CacheHierarchyTest, SequentialScanCostsOneL3AccessPerLine) {
  CacheHierarchy h = SmallHierarchy();
  const int kLines = 64;
  for (int64_t byte = 0; byte < kLines * 64; byte += 4) {
    h.Access(static_cast<uint64_t>(byte), 4);
  }
  // One demand miss starts the stream; every further line arrives by
  // stream prefetch: one L3 access per line, plus the single prefetch
  // running one line past the end (the paper's sequential pattern).
  EXPECT_EQ(h.stats().l3_accesses, static_cast<uint64_t>(kLines) + 1);
  EXPECT_EQ(h.stats().l1_misses, static_cast<uint64_t>(kLines));
  // After the first line, demand accesses are served from L2 (latency
  // hidden by the stream), not memory.
  EXPECT_EQ(h.stats().l3_misses, static_cast<uint64_t>(kLines) + 1);
}

TEST(CacheHierarchyTest, SkippingScanDoubleCountsRandomMisses) {
  CacheHierarchy h = SmallHierarchy();
  const int kLines = 64;
  // Touch every third line: every touched line is a "random miss" whose
  // next-line prefetch is wasted -> 2 L3 accesses per touched line.
  int touched = 0;
  for (int line = 0; line < kLines; line += 3) {
    h.Access(static_cast<uint64_t>(line) * 64, 4);
    ++touched;
  }
  EXPECT_EQ(h.stats().l3_accesses, static_cast<uint64_t>(2 * touched));
}

TEST(CacheHierarchyTest, PrefetchSquashedWhenLineResident) {
  CacheHierarchy h = SmallHierarchy();
  h.Access(1 * 64, 4);  // brings line 1 (+ prefetch 2)
  h.Access(0 * 64, 4);  // demand miss line 0; prefetch of line 1 squashed
  EXPECT_EQ(h.stats().prefetch_requests, 1u);
}

TEST(CacheStatsTest, SubtractionWindows) {
  CacheHierarchy h = SmallHierarchy();
  h.Access(0, 4);
  const CacheStats mid = h.stats();
  h.Access(100 * kCacheLineBytes, 4);  // a cold line far from line 0
  const CacheStats delta = h.stats() - mid;
  EXPECT_EQ(delta.l1_accesses, 1u);
  EXPECT_EQ(delta.l3_accesses, 2u);  // demand + its next-line prefetch
  EXPECT_EQ(delta.l3_misses, 2u);
  EXPECT_EQ(delta.prefetch_requests, 1u);
}

}  // namespace
}  // namespace nipo
