#include "hw/pmu.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace nipo {
namespace {

TEST(HwConfigTest, XeonPreset) {
  const HwConfig cfg = HwConfig::XeonE5_2630v2();
  EXPECT_EQ(cfg.l1.capacity_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l2.capacity_bytes, 256u * 1024);
  EXPECT_EQ(cfg.l3.capacity_bytes, 15u * 1024 * 1024);
  EXPECT_EQ(cfg.predictor.num_states, 6);
  EXPECT_DOUBLE_EQ(cfg.cycle_model.frequency_ghz, 2.6);
}

TEST(HwConfigTest, ScaledXeonDividesCapacities) {
  const HwConfig cfg = HwConfig::ScaledXeon(4);
  EXPECT_EQ(cfg.l1.capacity_bytes, 8u * 1024);
  EXPECT_EQ(cfg.l3.capacity_bytes, 15u * 1024 * 1024 / 4);
  EXPECT_EQ(cfg.l1.num_lines(), 8u * 1024 / 64);
}

TEST(HwConfigTest, ScaledXeonFloorsAtOneWayGroup) {
  const HwConfig cfg = HwConfig::ScaledXeon(1'000'000);
  EXPECT_GE(cfg.l1.capacity_bytes,
            static_cast<uint64_t>(cfg.l1.associativity) * kCacheLineBytes);
  EXPECT_GE(cfg.l1.num_sets(), 1u);
}

TEST(CycleModelTest, LoadCostsOrdered) {
  CycleModel m;
  EXPECT_LT(m.l1_hit_cycles, m.l2_hit_cycles);
  EXPECT_LT(m.l2_hit_cycles, m.l3_hit_cycles);
  EXPECT_LT(m.l3_hit_cycles, m.memory_cycles);
}

TEST(PmuTest, CountsInstructions) {
  Pmu pmu;
  pmu.OnInstructions(10);
  EXPECT_EQ(pmu.Read().instructions, 10u);
  EXPECT_GT(pmu.Read().cycles, 0u);
}

TEST(PmuTest, BranchCountersSplitByDirection) {
  Pmu pmu;
  pmu.EnsureBranchSites(1);
  pmu.OnBranch(0, true);
  pmu.OnBranch(0, true);
  pmu.OnBranch(0, false);
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.branches, 3u);
  EXPECT_EQ(c.branches_taken, 2u);
  EXPECT_EQ(c.branches_not_taken, 1u);
  EXPECT_EQ(c.mispredictions,
            c.taken_mispredictions + c.not_taken_mispredictions);
}

TEST(PmuTest, MispredictionChargesPenalty) {
  Pmu pmu;
  pmu.EnsureBranchSites(2);
  // Saturate site 0 toward taken, then surprise it.
  for (int i = 0; i < 10; ++i) pmu.OnBranch(0, true);
  const uint64_t before = pmu.Read().cycles;
  pmu.OnBranch(0, true);  // predicted correctly
  const uint64_t correct_cost = pmu.Read().cycles - before;
  const uint64_t before2 = pmu.Read().cycles;
  pmu.OnBranch(0, false);  // mispredicted
  const uint64_t wrong_cost = pmu.Read().cycles - before2;
  EXPECT_GT(wrong_cost, correct_cost + 10);
}

TEST(PmuTest, LoadsRunThroughCaches) {
  Pmu pmu;
  EXPECT_EQ(pmu.OnLoadAddr(0x1000, 4), MemoryLevel::kMemory);
  EXPECT_EQ(pmu.OnLoadAddr(0x1000, 4), MemoryLevel::kL1);
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.l1_accesses, 2u);
  EXPECT_EQ(c.l1_misses, 1u);
  EXPECT_GE(c.l3_accesses, 1u);
}

TEST(PmuTest, ResetCountersKeepsMachineState) {
  Pmu pmu;
  pmu.OnLoadAddr(0x1000, 4);
  pmu.ResetCounters();
  EXPECT_EQ(pmu.Read().l1_accesses, 0u);
  EXPECT_EQ(pmu.Read().cycles, 0u);
  // The line is still cached: the next access hits L1.
  EXPECT_EQ(pmu.OnLoadAddr(0x1000, 4), MemoryLevel::kL1);
  EXPECT_EQ(pmu.Read().l1_misses, 0u);
}

TEST(PmuTest, SnapshotSubtraction) {
  Pmu pmu;
  pmu.EnsureBranchSites(1);
  pmu.OnBranch(0, true);
  const PmuCounters a = pmu.Read();
  pmu.OnBranch(0, true);
  pmu.OnInstructions(5);
  const PmuCounters delta = pmu.Read() - a;
  EXPECT_EQ(delta.branches, 1u);
  EXPECT_EQ(delta.instructions, 6u);  // 5 + the branch instruction
}

TEST(PmuTest, CountersAccumulateWithPlusEquals) {
  PmuCounters a, b;
  a.branches = 3;
  a.cycles = 10;
  b.branches = 4;
  b.cycles = 20;
  a += b;
  EXPECT_EQ(a.branches, 7u);
  EXPECT_EQ(a.cycles, 30u);
}

TEST(PmuTest, ToMillisecondsUsesFrequency) {
  Pmu pmu;  // 2.6 GHz -> 2.6e6 cycles per msec
  PmuCounters c;
  c.cycles = 2'600'000;
  EXPECT_NEAR(pmu.ToMilliseconds(c), 1.0, 1e-9);
}

TEST(PmuTest, ChargeCyclesAddsToClockOnly) {
  Pmu pmu;
  pmu.ChargeCycles(1000.0);
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.cycles, 1000u);
  EXPECT_EQ(c.instructions, 0u);
}

TEST(PmuTest, ToStringMentionsKeyCounters) {
  Pmu pmu;
  pmu.OnInstructions(1);
  const std::string s = pmu.Read().ToString();
  EXPECT_NE(s.find("instructions=1"), std::string::npos);
  // Every field, once, in declaration order, under its own name: a
  // failing counter comparison prints two strings that differ wherever
  // the counters do.
  std::string keys;
  std::istringstream tokens(s);
  for (std::string token; tokens >> token;) {
    keys += token.substr(0, token.find('=')) + " ";
  }
  EXPECT_EQ(keys,
            "instructions branches branches_taken branches_not_taken "
            "mispredictions taken_mispredictions not_taken_mispredictions "
            "l1_accesses l1_misses l2_accesses l2_misses l3_accesses "
            "l3_misses prefetch_requests l3_evictions_caused "
            "l3_evictions_suffered cycles ")
      << s;
  static_assert(sizeof(PmuCounters) == 17 * sizeof(uint64_t),
                "a new PmuCounters field needs a ToString entry");
}

}  // namespace
}  // namespace nipo
