/// \file pmu_batch_test.cc
/// Differential tests of the batched event-reporting layer (DESIGN.md
/// "Batched simulation"): for every run-reporting API and for whole
/// executors, the kScalar and kBatched modes of otherwise identical
/// machines must produce bit-identical PmuCounters. Also covers the
/// closed-form BranchPredictor::ObserveRun, the power-of-two set-count
/// normalization, the MRU lookup fast path, and HashTableStats windows.

#include <gtest/gtest.h>

#include <vector>

#include "common/prng.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_table.h"
#include "hw/pmu.h"

namespace nipo {
namespace {

/// Two identically configured machines, one per reporting mode.
struct ModePair {
  Pmu scalar;
  Pmu batched;

  explicit ModePair(HwConfig cfg = HwConfig::ScaledXeon(32))
      : scalar(cfg), batched(cfg) {
    scalar.set_reporting_mode(ReportingMode::kScalar);
    batched.set_reporting_mode(ReportingMode::kBatched);
  }

  void ExpectIdentical(const char* what) {
    const PmuCounters a = scalar.Read();
    const PmuCounters b = batched.Read();
    EXPECT_EQ(a, b) << what << "\nscalar:  " << a.ToString()
                    << "\nbatched: " << b.ToString();
    // The full cache-level hit/miss books must agree too, not just the
    // PmuCounters projection: future traffic depends on them.
    EXPECT_EQ(scalar.caches().l1().hits(), batched.caches().l1().hits());
    EXPECT_EQ(scalar.caches().l1().misses(), batched.caches().l1().misses());
    EXPECT_EQ(scalar.caches().l2().hits(), batched.caches().l2().hits());
    EXPECT_EQ(scalar.caches().l3().hits(), batched.caches().l3().hits());
  }
};

TEST(ObserveRunTest, MatchesScalarObserveForAllConfigsStatesAndLengths) {
  for (const PredictorConfig cfg :
       {PredictorConfig::Symmetric(2), PredictorConfig::Symmetric(4),
        PredictorConfig::Symmetric(6), PredictorConfig::Symmetric(8),
        PredictorConfig::PlusOneTaken(5), PredictorConfig::PlusOneNotTaken(5),
        PredictorConfig::PlusOneTaken(7)}) {
    for (int start = 0; start < cfg.num_states; ++start) {
      for (const bool taken : {false, true}) {
        for (const uint64_t n : {0ull, 1ull, 2ull, 3ull, 7ull, 100ull}) {
          BranchPredictor loop(cfg), closed(cfg);
          loop.EnsureSites(1);
          closed.EnsureSites(1);
          // Drive both to the same start state.
          while (loop.state(0) != start) {
            loop.Observe(0, loop.state(0) < start);
            closed.Observe(0, closed.state(0) < start);
          }
          uint64_t loop_mispredictions = 0;
          for (uint64_t i = 0; i < n; ++i) {
            if (loop.Observe(0, taken).mispredicted) ++loop_mispredictions;
          }
          EXPECT_EQ(closed.ObserveRun(0, taken, n), loop_mispredictions)
              << "states=" << cfg.num_states << " nts=" << cfg.not_taken_states
              << " start=" << start << " taken=" << taken << " n=" << n;
          EXPECT_EQ(closed.state(0), loop.state(0));
        }
      }
    }
  }
}

TEST(BranchStepTableTest, EveryEntryMatchesEightObserveCalls) {
  for (int n = 2; n <= BranchStepTable::kMaxStates; ++n) {
    for (int nts = 1; nts < n; ++nts) {
      const PredictorConfig cfg{n, nts};
      const BranchStepTable* table = BranchStepTable::For(cfg);
      ASSERT_NE(table, nullptr) << "states=" << n;
      EXPECT_EQ(BranchStepTable::For(cfg), table) << "built once";
      for (int start = 0; start < n; ++start) {
        BranchPredictor at_start(cfg);
        at_start.EnsureSites(1);
        while (at_start.state(0) != start) {
          at_start.Observe(0, at_start.state(0) < start);
        }
        for (int bits = 0; bits < 256; ++bits) {
          BranchPredictor scalar = at_start;
          uint64_t taken_mp = 0, not_taken_mp = 0;
          for (int j = 0; j < 8; ++j) {
            const bool taken = ((bits >> j) & 1) == 0;
            if (scalar.Observe(0, taken).mispredicted) {
              ++(taken ? taken_mp : not_taken_mp);
            }
          }
          const BranchStepTable::Entry& e =
              table->Lookup(start, static_cast<uint8_t>(bits));
          ASSERT_EQ(e.next_state, scalar.state(0))
              << "states=" << n << " nts=" << nts << " start=" << start
              << " bits=" << bits;
          ASSERT_EQ(e.taken_mp, taken_mp);
          ASSERT_EQ(e.not_taken_mp, not_taken_mp);
        }
      }
    }
  }
  EXPECT_EQ(BranchStepTable::For(PredictorConfig::Symmetric(
                BranchStepTable::kMaxStates + 2)),
            nullptr);
}

TEST(PassFlagsTest, PackPutsFlagJInBitJ) {
  for (int bits = 0; bits < 256; ++bits) {
    uint8_t flags[8];
    for (int j = 0; j < 8; ++j) flags[j] = (bits >> j) & 1;
    EXPECT_EQ(PackPassFlags(flags), bits);
  }
}

TEST(PmuBatchTest, PredicateBranchesIdenticalAcrossModes) {
  // Every length 0-70 covers every tail length behind whole groups of 8;
  // the machines keep their predictor state from call to call, so a
  // state handed across the group/tail boundary is checked as well. The
  // 20-state predictor has no step table and books run by run.
  for (const PredictorConfig cfg :
       {PredictorConfig::Symmetric(6), PredictorConfig::Symmetric(2),
        PredictorConfig::PlusOneTaken(5), PredictorConfig::PlusOneNotTaken(7),
        PredictorConfig::Symmetric(16), PredictorConfig::Symmetric(20)}) {
    HwConfig hw = HwConfig::ScaledXeon(32);
    hw.predictor = cfg;
    ModePair m(hw);
    m.scalar.EnsureBranchSites(2);
    m.batched.EnsureBranchSites(2);
    Prng prng(
        static_cast<uint64_t>(31 * cfg.num_states + cfg.not_taken_states));
    std::vector<uint8_t> flags;
    for (size_t n = 0; n <= 70; ++n) {
      for (int shape = 0; shape < 4; ++shape) {
        flags.resize(n);
        if (shape < 3) {
          // Independent outcomes at selectivity 0.5, 0.1 and 0.9.
          const double p = shape == 0 ? 0.5 : shape == 1 ? 0.1 : 0.9;
          for (uint8_t& f : flags) f = prng.NextBool(p) ? 1 : 0;
        } else {
          // Run-heavy: uniform runs of 1-20 outcomes.
          for (size_t j = 0; j < n;) {
            const size_t run = 1 + prng.NextBounded(20);
            const uint8_t f = prng.NextBool(0.5) ? 1 : 0;
            for (size_t k = 0; k < run && j < n; ++k) flags[j++] = f;
          }
        }
        const size_t site = prng.NextBounded(2);
        m.scalar.OnPredicateBranches(site, flags.data(), n);
        m.batched.OnPredicateBranches(site, flags.data(), n);
        ASSERT_EQ(m.scalar.Read(), m.batched.Read())
            << "states=" << cfg.num_states << " n=" << n
            << " shape=" << shape << "\nscalar:  "
            << m.scalar.Read().ToString()
            << "\nbatched: " << m.batched.Read().ToString();
        ASSERT_EQ(m.scalar.predictor().state(site),
                  m.batched.predictor().state(site));
      }
    }
  }
}

TEST(PmuBatchTest, BranchRunsIdenticalAcrossModes) {
  ModePair m;
  m.scalar.EnsureBranchSites(3);
  m.batched.EnsureBranchSites(3);
  Prng prng(7);
  for (int i = 0; i < 500; ++i) {
    const size_t site = prng.NextBounded(3);
    const bool taken = prng.NextBool(0.4);
    const uint64_t n = 1 + prng.NextBounded(20);
    m.scalar.OnBranchRun(site, taken, n);
    m.batched.OnBranchRun(site, taken, n);
  }
  m.ExpectIdentical("mixed branch runs");
}

TEST(PmuBatchTest, SequentialLoadsIdenticalAcrossModes) {
  // Aligned 4- and 8-byte elements (the column fast path) and 24-byte
  // line-straddling elements (the hash-slot path), cold and warm.
  std::vector<int64_t> data(1 << 16);
  for (const uint32_t width : {4u, 8u, 24u}) {
    ModePair m;
    for (int pass = 0; pass < 2; ++pass) {
      m.scalar.OnSequentialLoads(data.data(), width,
                                 data.size() * 8 / width - 1);
      m.batched.OnSequentialLoads(data.data(), width,
                                  data.size() * 8 / width - 1);
    }
    m.ExpectIdentical("sequential loads");
  }
}

TEST(PmuBatchTest, UnalignedBaseSequentialLoadsIdenticalAcrossModes) {
  std::vector<int64_t> data(1 << 12);
  ModePair m;
  const uint8_t* base = reinterpret_cast<const uint8_t*>(data.data()) + 2;
  m.scalar.OnSequentialLoads(base, 4, 2'000);
  m.batched.OnSequentialLoads(base, 4, 2'000);
  m.ExpectIdentical("unaligned-base sequential loads");
}

TEST(PmuBatchTest, GatherLoadsIdenticalAcrossModes) {
  std::vector<int32_t> data(1 << 16);
  Prng prng(13);
  for (const double density : {0.02, 0.3, 0.95}) {
    // Sorted selection vectors (selective scan survivors)...
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < data.size(); ++r) {
      if (prng.NextBool(density)) rows.push_back(r);
    }
    ModePair m;
    m.scalar.OnGatherLoads(data.data(), 4, rows.data(), rows.size());
    m.batched.OnGatherLoads(data.data(), 4, rows.data(), rows.size());
    // ...and random probe-key gathers with duplicates.
    std::vector<uint32_t> keys(4'096);
    for (uint32_t& k : keys) {
      k = static_cast<uint32_t>(prng.NextBounded(data.size()));
    }
    m.scalar.OnGatherLoads(data.data(), 4, keys.data(), keys.size());
    m.batched.OnGatherLoads(data.data(), 4, keys.data(), keys.size());
    m.ExpectIdentical("gather loads");
  }
}

TEST(PmuBatchTest, InterleavedTrafficIdenticalAcrossModes) {
  // Runs interrupted by scalar one-off events: coalescing state must not
  // leak across calls.
  std::vector<int32_t> a(1 << 14), b(1 << 14);
  ModePair m;
  m.scalar.EnsureBranchSites(2);
  m.batched.EnsureBranchSites(2);
  Prng prng(29);
  for (int i = 0; i < 200; ++i) {
    const uint64_t offset = prng.NextBounded(a.size() - 512);
    const uint64_t n = 1 + prng.NextBounded(512);
    const uint64_t stray = prng.NextBounded(b.size());
    for (Pmu* pmu : {&m.scalar, &m.batched}) {
      pmu->OnSequentialLoads(a.data() + offset, 4, n);
      pmu->OnLoad(b.data() + stray, 4);
      pmu->OnBranchRun(i % 2, i % 3 == 0, 1 + i % 5);
      pmu->OnInstructions(3);
    }
  }
  m.ExpectIdentical("interleaved traffic");
}

TEST(PmuBatchTest, CounterWindowsIdenticalAcrossModes) {
  std::vector<int32_t> data(1 << 14);
  ModePair m;
  for (Pmu* pmu : {&m.scalar, &m.batched}) {
    pmu->OnSequentialLoads(data.data(), 4, 10'000);
    pmu->ResetCounters();  // window boundary with warm caches
    pmu->OnSequentialLoads(data.data(), 4, 10'000);
  }
  m.ExpectIdentical("post-reset warm window");
  EXPECT_EQ(m.scalar.Read().l1_accesses, 10'000u);
}

TEST(PmuBatchTest, HashTableSlotRunsIdenticalAcrossModes) {
  // Probe-chain-shaped traffic over a shared buffer: short sequential
  // runs of 24-byte line-straddling elements at random offsets — exactly
  // what ReportChain emits — must coalesce without counter drift.
  struct FakeSlot {
    int64_t key, value;
    bool occupied;
  };
  static_assert(sizeof(FakeSlot) == 24);
  std::vector<FakeSlot> slots(4'096);
  ModePair m;
  Prng prng(5);
  for (int i = 0; i < 20'000; ++i) {
    const size_t index = prng.NextBounded(slots.size());
    const size_t length =
        std::min(1 + prng.NextBounded(6), slots.size() - index);
    m.scalar.OnSequentialLoads(&slots[index], sizeof(FakeSlot), length);
    m.batched.OnSequentialLoads(&slots[index], sizeof(FakeSlot), length);
  }
  m.ExpectIdentical("hash-slot chain runs");
}

TEST(PmuBatchTest, HashTableTrafficIdenticalAcrossModes) {
  // The simulated cache hashes real addresses, so the two tables must
  // occupy the same memory for their counter streams to be comparable:
  // run them scoped and sequentially (the allocator reuses the freed
  // block) and skip — rather than fail spuriously — if it does not.
  Prng op_prng(5);
  struct Op {
    int kind;
    int64_t key;
  };
  std::vector<Op> ops(3'000);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i] = {static_cast<int>(op_prng.NextBounded(3)),
              static_cast<int64_t>(op_prng.NextBounded(4'000))};
  }
  ModePair m;
  auto run = [&ops](Pmu* pmu, const void** base) {
    InstrumentedHashTable table(2'000, pmu);
    *base = table.slots_base();
    int64_t i = 0, v = 0;
    for (const Op& op : ops) {
      switch (op.kind) {
        case 0:
          (void)table.Insert(op.key, i++);
          break;
        case 1:
          (void)table.Lookup(op.key, &v);
          break;
        default:
          (void)table.Accumulate(op.key, 1);
      }
    }
    return table.stats();
  };
  const void* scalar_base = nullptr;
  const void* batched_base = nullptr;
  const HashTableStats scalar_stats = run(&m.scalar, &scalar_base);
  const HashTableStats batched_stats = run(&m.batched, &batched_base);
  EXPECT_EQ(scalar_stats.slot_touches, batched_stats.slot_touches);
  EXPECT_EQ(scalar_stats.operations, batched_stats.operations);
  if (scalar_base != batched_base) {
    GTEST_SKIP() << "allocator did not reuse the slot array address; "
                    "cache counters are not comparable in this run";
  }
  m.ExpectIdentical("hash table probe chains");
}

TEST(PmuBatchTest, HashAggregateIdenticalAcrossModes) {
  Table t("t");
  Prng prng(17);
  std::vector<int32_t> g(30'000), f(30'000), v(30'000);
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<int32_t>(prng.NextBounded(24));
    f[i] = static_cast<int32_t>(prng.NextBounded(100));
    v[i] = static_cast<int32_t>(prng.NextBounded(1'000));
  }
  ASSERT_TRUE(t.AddColumn("g", std::move(g)).ok());
  ASSERT_TRUE(t.AddColumn("f", std::move(f)).ok());
  ASSERT_TRUE(t.AddColumn("v", std::move(v)).ok());
  HashAggregateSpec spec;
  spec.table = &t;
  spec.group_column = "g";
  spec.filters = {{"f", CompareOp::kLt, 60.0}};
  spec.aggregates = {{"v"}};

  ModePair m;
  auto scalar_result = ExecuteHashAggregate(spec, &m.scalar);
  auto batched_result = ExecuteHashAggregate(spec, &m.batched);
  ASSERT_TRUE(scalar_result.ok() && batched_result.ok());
  ASSERT_EQ(scalar_result.ValueOrDie().groups.size(),
            batched_result.ValueOrDie().groups.size());
  for (size_t i = 0; i < scalar_result.ValueOrDie().groups.size(); ++i) {
    EXPECT_EQ(scalar_result.ValueOrDie().groups[i].count,
              batched_result.ValueOrDie().groups[i].count);
    EXPECT_EQ(scalar_result.ValueOrDie().groups[i].sums,
              batched_result.ValueOrDie().groups[i].sums);
  }
  if (scalar_result.ValueOrDie().table_base !=
      batched_result.ValueOrDie().table_base) {
    GTEST_SKIP() << "allocator did not reuse the group table address; "
                    "cache counters are not comparable in this run";
  }
  m.ExpectIdentical("hash aggregate");
}

TEST(CacheNormalizationTest, NonPowerOfTwoSetCountKeepsCapacity) {
  // The Xeon L3: 15 MB / 64 B lines / 20 ways = 12288 sets (3 * 2^12).
  CacheLevel level(CacheGeometry{15 * 1024 * 1024, 20, 64});
  EXPECT_EQ(level.num_sets(), 16384u);  // rounded up to a power of two
  EXPECT_EQ(level.ways(), 15u);         // re-derived: capacity preserved
  EXPECT_EQ(level.num_sets() * level.ways() * 64, 15u * 1024 * 1024);
  // Set indices must stay in range and the level must behave.
  for (uint64_t line = 0; line < 1'000; ++line) {
    EXPECT_LT(level.SetOf(line), level.num_sets());
    level.Insert(line);
    EXPECT_TRUE(level.Contains(line));
  }
}

TEST(CacheNormalizationTest, PowerOfTwoGeometryUnchanged) {
  CacheLevel level(CacheGeometry{32 * 1024, 8, 64});
  EXPECT_EQ(level.num_sets(), 64u);
  EXPECT_EQ(level.ways(), 8u);
}

TEST(CacheNormalizationTest, IndivisibleLineCountKeepsMostRetentiveShape) {
  // 30 lines as 10 sets x 3 ways: neither 8 nor 16 sets divides 30, so
  // the normalization keeps the organization retaining the most lines
  // (8 x 3 = 24 beats 16 x 1 = 16) — bounded, documented flooring rather
  // than a silent arbitrary choice.
  CacheLevel level(CacheGeometry{1920, 3, 64});
  EXPECT_EQ(level.num_sets(), 8u);
  EXPECT_EQ(level.ways(), 3u);
  for (uint64_t line = 0; line < 100; ++line) {
    EXPECT_LT(level.SetOf(line), level.num_sets());
  }
}

TEST(CacheMruTest, RepeatedLookupsCountHitsExactly) {
  CacheLevel level(CacheGeometry{1024, 2, 64});
  level.Insert(3);
  level.Insert(4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(level.Lookup(3));  // MRU fast path after the first
  }
  EXPECT_TRUE(level.Lookup(4));  // scan path refreshes the MRU way
  EXPECT_TRUE(level.Lookup(4));  // now the fast path again
  EXPECT_EQ(level.hits(), 12u);
  EXPECT_EQ(level.misses(), 0u);
  EXPECT_FALSE(level.Lookup(1'000'000));
  EXPECT_EQ(level.misses(), 1u);
}

TEST(HashTableStatsTest, WindowsSubtractLikePmuCounters) {
  Pmu pmu;
  InstrumentedHashTable table(1'000, &pmu);
  for (int k = 0; k < 500; ++k) {
    ASSERT_TRUE(table.Insert(k * 31, k).ok());
  }
  const HashTableStats build = table.stats();
  EXPECT_EQ(build.operations, 500u);
  EXPECT_GE(build.slot_touches, 500u);
  int64_t v = 0;
  for (int k = 0; k < 200; ++k) {
    (void)table.Lookup(k * 31, &v);
  }
  const HashTableStats probe_window = table.stats() - build;
  EXPECT_EQ(probe_window.operations, 200u);
  EXPECT_GE(probe_window.average_probe_length(), 1.0);
  // The lifetime average still covers everything.
  EXPECT_EQ(table.stats().operations, 700u);
}

}  // namespace
}  // namespace nipo
