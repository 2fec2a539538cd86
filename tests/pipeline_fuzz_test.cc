/// \file pipeline_fuzz_test.cc
/// Randomized differential testing: for many seeded random (table,
/// predicate chain, order, vector size) combinations, the instrumented
/// pipeline, the progressive optimizer, and a naive reference evaluator
/// must agree exactly on the query result, and the PMU's structural
/// counter identities must hold.

#include <gtest/gtest.h>

#include <cmath>

#include "common/prng.h"
#include "exec/simd.h"
#include "hw/shared_cache.h"
#include "optimizer/progressive.h"
#include "storage/encoding.h"

namespace nipo {
namespace {

struct RandomCase {
  Table table{"t"};
  std::vector<OperatorSpec> ops;
  std::vector<std::string> payload;
  uint64_t ref_qualifying = 0;
  double ref_aggregate = 0;
};

/// A random table of `min_rows` to `min_rows` + 30,000 rows, its
/// operators, and their reference result.
RandomCase MakeCase(uint64_t seed, size_t min_rows = 1'000) {
  Prng prng(seed);
  RandomCase c;
  const size_t rows = min_rows + prng.NextBounded(30'000);
  const size_t num_cols = 2 + prng.NextBounded(5);  // 2..6 columns

  // Mixed-type columns with varied domains (some constant, some skewed).
  std::vector<std::vector<double>> values(num_cols,
                                          std::vector<double>(rows));
  for (size_t col = 0; col < num_cols; ++col) {
    const int kind = static_cast<int>(prng.NextBounded(4));
    for (size_t i = 0; i < rows; ++i) {
      switch (kind) {
        case 0:  // uniform wide
          values[col][i] = static_cast<double>(prng.NextBounded(1000));
          break;
        case 1:  // uniform narrow (many duplicates)
          values[col][i] = static_cast<double>(prng.NextBounded(4));
          break;
        case 2:  // constant
          values[col][i] = 7.0;
          break;
        default:  // drifting: distribution changes mid-table
          values[col][i] =
              i < rows / 2
                  ? static_cast<double>(prng.NextBounded(100))
                  : static_cast<double>(500 + prng.NextBounded(100));
      }
    }
    const std::string name = "c" + std::to_string(col);
    const int type = static_cast<int>(prng.NextBounded(3));
    if (type == 0) {
      std::vector<int32_t> v(rows);
      for (size_t i = 0; i < rows; ++i) {
        v[i] = static_cast<int32_t>(values[col][i]);
      }
      EXPECT_TRUE(c.table.AddColumn(name, std::move(v)).ok());
    } else if (type == 1) {
      std::vector<int64_t> v(rows);
      for (size_t i = 0; i < rows; ++i) {
        v[i] = static_cast<int64_t>(values[col][i]);
      }
      EXPECT_TRUE(c.table.AddColumn(name, std::move(v)).ok());
    } else {
      std::vector<double> v(rows);
      for (size_t i = 0; i < rows; ++i) v[i] = values[col][i];
      EXPECT_TRUE(c.table.AddColumn(name, std::move(v)).ok());
    }
  }

  // 1..5 predicates on random columns (repeats allowed -- the executor
  // must handle repeated-column predicates even though the analytic scan
  // model is specified for distinct ones).
  const size_t num_preds = 1 + prng.NextBounded(5);
  static constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                       CompareOp::kGt, CompareOp::kGe,
                                       CompareOp::kEq, CompareOp::kNe};
  for (size_t p = 0; p < num_preds; ++p) {
    PredicateSpec pred;
    pred.column = "c" + std::to_string(prng.NextBounded(num_cols));
    pred.op = kOps[prng.NextBounded(6)];
    pred.value = static_cast<double>(prng.NextInRange(-10, 1010));
    if (prng.NextBool(0.2)) pred.extra_instructions = 10.0;
    c.ops.push_back(OperatorSpec::Predicate(pred));
  }
  // Payload: last column, as SUM input, half the time.
  if (prng.NextBool(0.5)) {
    c.payload.push_back("c" + std::to_string(num_cols - 1));
  }

  // Reference evaluation straight off the value matrix.
  for (size_t i = 0; i < rows; ++i) {
    bool pass = true;
    for (const OperatorSpec& op : c.ops) {
      const size_t col =
          static_cast<size_t>(op.predicate.column[1] - '0');
      // Column values were stored possibly truncated to int; recompute
      // what the table holds.
      double v = values[col][i];
      const ColumnBase* column =
          c.table.GetColumn(op.predicate.column).ValueOrDie();
      if (column->type() != DataType::kDouble) {
        v = std::floor(v);
      }
      if (!EvaluateCompare(v, op.predicate.op, op.predicate.value)) {
        pass = false;
        break;
      }
    }
    if (pass) {
      ++c.ref_qualifying;
      if (!c.payload.empty()) {
        double v = values[num_cols - 1][i];
        const ColumnBase* column =
            c.table.GetColumn(c.payload[0]).ValueOrDie();
        if (column->type() != DataType::kDouble) v = std::floor(v);
        c.ref_aggregate += v;
      }
    }
  }
  return c;
}

class PipelineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineFuzzTest, MatchesReferenceUnderAnyOrderAndVectorSize) {
  const uint64_t seed = GetParam();
  RandomCase c = MakeCase(seed);
  Prng prng(seed ^ 0xabcdef);

  // A few random orders and vector sizes per case.
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<size_t> order(c.ops.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[prng.NextBounded(i)]);
    }
    const size_t vector_size = 64 + prng.NextBounded(8192);

    Pmu pmu(HwConfig::ScaledXeon(32));
    auto exec =
        PipelineExecutor::Compile(c.table, c.ops, c.payload, &pmu);
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE(exec.ValueOrDie()->Reorder(order).ok());
    VectorDriver driver(exec.ValueOrDie().get(), vector_size);
    const DriveResult r = driver.Run();

    ASSERT_EQ(r.qualifying_tuples, c.ref_qualifying)
        << "seed=" << seed << " trial=" << trial;
    ASSERT_DOUBLE_EQ(r.aggregate, c.ref_aggregate);
    // Structural counter identity: qualifying = 2n - branches_taken.
    ASSERT_EQ(2 * r.input_tuples - r.total.branches_taken,
              r.qualifying_tuples);
    // Mispredictions partition.
    ASSERT_EQ(r.total.mispredictions,
              r.total.taken_mispredictions +
                  r.total.not_taken_mispredictions);
    // Branch direction counts partition the branch count.
    ASSERT_EQ(r.total.branches,
              r.total.branches_taken + r.total.branches_not_taken);
  }
}

TEST_P(PipelineFuzzTest, ScalarAndBatchedReportingBitIdentical) {
  // The batched reporting layer (DESIGN.md "Batched simulation") claims
  // PmuCounters are reporting-path invariant. Prove it differentially:
  // identical machines, identical pipelines, random orders, vector sizes
  // and cache configurations — scalar vs batched Read() must be
  // bit-equal, per sampled vector window and in total.
  const uint64_t seed = GetParam();
  RandomCase c = MakeCase(seed);
  Prng prng(seed ^ 0x5eed);

  for (const uint64_t cache_divisor : {8ull, 32ull, 1024ull}) {
    std::vector<size_t> order(c.ops.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[prng.NextBounded(i)]);
    }
    const size_t vector_size = 64 + prng.NextBounded(8192);

    const HwConfig hw = HwConfig::ScaledXeon(cache_divisor);
    Pmu scalar_pmu(hw), batched_pmu(hw);
    scalar_pmu.set_reporting_mode(ReportingMode::kScalar);
    batched_pmu.set_reporting_mode(ReportingMode::kBatched);

    std::vector<PmuCounters> scalar_samples, batched_samples;
    DriveResult results[2];
    int which = 0;
    for (Pmu* pmu : {&scalar_pmu, &batched_pmu}) {
      auto exec = PipelineExecutor::Compile(c.table, c.ops, c.payload, pmu);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(exec.ValueOrDie()->Reorder(order).ok());
      VectorDriver driver(exec.ValueOrDie().get(), vector_size);
      auto* samples = pmu == &scalar_pmu ? &scalar_samples : &batched_samples;
      results[which++] = driver.Run([samples](const VectorSample& s) {
        samples->push_back(s.counters);
      });
    }
    ASSERT_EQ(results[0].qualifying_tuples, results[1].qualifying_tuples);
    ASSERT_EQ(results[0].aggregate, results[1].aggregate);
    ASSERT_EQ(results[0].total, results[1].total)
        << "seed=" << seed << " divisor=" << cache_divisor << "\nscalar:  "
        << results[0].total.ToString() << "\nbatched: "
        << results[1].total.ToString();
    // Every per-vector counter window must agree too (the progressive
    // optimizer consumes these).
    ASSERT_EQ(scalar_samples.size(), batched_samples.size());
    for (size_t v = 0; v < scalar_samples.size(); ++v) {
      ASSERT_EQ(scalar_samples[v], batched_samples[v])
          << "seed=" << seed << " vector=" << v;
    }
  }
}

TEST_P(PipelineFuzzTest, Avx2AndScalarKernelsBitIdentical) {
  // The SIMD layer's contract (DESIGN.md Section 8): the AVX2 and
  // branch-free scalar kernels produce identical results, and because
  // executors book the logical event stream themselves, identical
  // simulated counters — on any cache geometry. Prove it differentially
  // over the same random pipelines as the reporting-mode test.
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "host lacks AVX2; only the scalar kernels can run";
  }
  const uint64_t seed = GetParam();
  RandomCase c = MakeCase(seed);
  Prng prng(seed ^ 0x51d);

  for (const uint64_t cache_divisor : {8ull, 32ull, 1024ull}) {
    std::vector<size_t> order(c.ops.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[prng.NextBounded(i)]);
    }
    const size_t vector_size = 64 + prng.NextBounded(8192);

    const HwConfig hw = HwConfig::ScaledXeon(cache_divisor);
    std::vector<std::vector<PmuCounters>> samples(2);
    DriveResult results[2];
    int which = 0;
    for (const simd::SimdLevel level :
         {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
      simd::ForceLevel(level);
      Pmu pmu(hw);
      auto exec = PipelineExecutor::Compile(c.table, c.ops, c.payload, &pmu);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(exec.ValueOrDie()->Reorder(order).ok());
      VectorDriver driver(exec.ValueOrDie().get(), vector_size);
      auto* out = &samples[which];
      results[which++] = driver.Run(
          [out](const VectorSample& s) { out->push_back(s.counters); });
    }
    simd::ResetForcedLevel();
    ASSERT_EQ(results[0].qualifying_tuples, results[1].qualifying_tuples)
        << "seed=" << seed << " divisor=" << cache_divisor;
    ASSERT_EQ(results[0].aggregate, results[1].aggregate);
    ASSERT_EQ(results[0].total, results[1].total)
        << "seed=" << seed << " divisor=" << cache_divisor << "\nscalar: "
        << results[0].total.ToString() << "\navx2:   "
        << results[1].total.ToString();
    ASSERT_EQ(samples[0].size(), samples[1].size());
    for (size_t v = 0; v < samples[0].size(); ++v) {
      ASSERT_EQ(samples[0][v], samples[1][v])
          << "seed=" << seed << " vector=" << v;
    }
  }
}

TEST_P(PipelineFuzzTest, EncodedStorageMatchesReference) {
  // Compressed storage differential (DESIGN.md Section 10): encode the
  // random table block by block -- the random column shapes cover the
  // dictionary/bit-pack edge cases (constant columns, narrow domains,
  // drifting distributions, doubles) -- and the pipeline over encoded
  // columns with zone-map skipping must still match the plain reference
  // exactly, for any order and vector size. Every fourth seed's table
  // spans three storage blocks, the last one partial; the others fit in
  // one partial block.
  const uint64_t seed = GetParam();
  RandomCase c = MakeCase(seed, seed % 4 == 0 ? 2 * kBlockValues + 1 : 1'000);
  Prng prng(seed ^ 0xe2c0de);

  auto stats = EncodeTableColumns(&c.table);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats.ValueOrDie().columns_encoded, 0u);

  for (int trial = 0; trial < 3; ++trial) {
    std::vector<size_t> order(c.ops.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[prng.NextBounded(i)]);
    }
    const size_t vector_size = 64 + prng.NextBounded(8192);

    Pmu pmu(HwConfig::ScaledXeon(32));
    auto exec = PipelineExecutor::Compile(c.table, c.ops, c.payload, &pmu);
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE(exec.ValueOrDie()->Reorder(order).ok());
    VectorDriver driver(exec.ValueOrDie().get(), vector_size);
    const DriveResult r = driver.Run();

    ASSERT_EQ(r.qualifying_tuples, c.ref_qualifying)
        << "seed=" << seed << " trial=" << trial
        << " zone_skipped=" << r.zone_skipped_tuples;
    ASSERT_DOUBLE_EQ(r.aggregate, c.ref_aggregate);
    // Skipped tuples never reach the pipeline, so the branch identity
    // holds over the tuples actually evaluated.
    ASSERT_EQ(2 * (r.input_tuples - r.zone_skipped_tuples) - r.total.branches_taken,
              r.qualifying_tuples);
  }
}

TEST_P(PipelineFuzzTest, ProgressiveOptimizerPreservesResults) {
  const uint64_t seed = GetParam();
  RandomCase c = MakeCase(seed);
  Pmu pmu(HwConfig::ScaledXeon(32));
  auto exec = PipelineExecutor::Compile(c.table, c.ops, c.payload, &pmu);
  ASSERT_TRUE(exec.ok());
  ProgressiveConfig cfg;
  cfg.vector_size = 1024;
  cfg.reopt_interval = 2;
  ProgressiveOptimizer opt(exec.ValueOrDie().get(), cfg);
  const ProgressiveReport report = opt.Run();
  ASSERT_EQ(report.drive.qualifying_tuples, c.ref_qualifying)
      << "seed=" << seed;
  ASSERT_DOUBLE_EQ(report.drive.aggregate, c.ref_aggregate);
  // The final order is a valid permutation.
  std::vector<bool> seen(c.ops.size(), false);
  for (size_t idx : report.final_order) {
    ASSERT_LT(idx, c.ops.size());
    ASSERT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

/// Replays a seeded random multi-owner access trace against a fresh
/// SharedCacheDomain (hw/shared_cache.h) and returns the final per-owner
/// stats. Owners interleave streaming sweeps with reuse probes over a
/// working set larger than the cache, so every accounting path (hits,
/// misses, ownership transfers, self- and cross-owner evictions) is
/// exercised.
std::vector<SharedCacheDomain::OwnerStats> DriveSharedL3(
    uint64_t seed, SharedCacheDomain* domain, uint64_t* lines_displaced,
    uint64_t* occupied_lines) {
  Prng prng(seed);
  const size_t num_owners = 2 + prng.NextBounded(4);  // 2..5 owners
  for (size_t o = 0; o < num_owners; ++o) {
    domain->RegisterOwner("owner" + std::to_string(o));
  }
  const uint64_t working_set = domain->capacity_lines() * 4;
  std::vector<uint64_t> stream_pos(num_owners, 0);
  const size_t num_accesses = 20'000 + prng.NextBounded(20'000);
  for (size_t i = 0; i < num_accesses; ++i) {
    const auto owner = static_cast<uint32_t>(prng.NextBounded(num_owners));
    uint64_t line;
    if (prng.NextBool(0.5)) {
      line = stream_pos[owner]++ % working_set;  // streaming sweep
    } else {
      // Reuse probe into a small owner-private hot set.
      line = working_set + owner * 64 + prng.NextBounded(64);
    }
    domain->AccessFill(owner, line);
  }
  *lines_displaced = domain->lines_displaced();
  *occupied_lines = domain->level().occupied_lines();
  std::vector<SharedCacheDomain::OwnerStats> stats;
  for (uint32_t o = 0; o < num_owners; ++o) {
    stats.push_back(domain->stats(o));
  }
  return stats;
}

TEST_P(PipelineFuzzTest, SharedL3MultiOwnerRoundTripIsDeterministic) {
  const uint64_t seed = GetParam();
  const CacheGeometry geometry{16 * 1024, 4};  // 256 lines, 64 sets
  SharedCacheDomain first(geometry), second(geometry);
  uint64_t displaced[2], occupied[2];
  const auto a = DriveSharedL3(seed, &first, &displaced[0], &occupied[0]);
  const auto b = DriveSharedL3(seed, &second, &displaced[1], &occupied[1]);
  // Same seed, fresh domain: bit-identical per-owner counters.
  ASSERT_EQ(a.size(), b.size());
  for (size_t o = 0; o < a.size(); ++o) {
    EXPECT_EQ(a[o].hits, b[o].hits) << "seed=" << seed << " owner=" << o;
    EXPECT_EQ(a[o].misses, b[o].misses);
    EXPECT_EQ(a[o].evictions_caused, b[o].evictions_caused);
    EXPECT_EQ(a[o].evictions_suffered, b[o].evictions_suffered);
    EXPECT_EQ(a[o].self_evictions, b[o].self_evictions);
    EXPECT_EQ(a[o].occupancy_lines, b[o].occupancy_lines);
    EXPECT_EQ(a[o].peak_occupancy_lines, b[o].peak_occupancy_lines);
  }
  EXPECT_EQ(displaced[0], displaced[1]);
  EXPECT_EQ(occupied[0], occupied[1]);
}

TEST_P(PipelineFuzzTest, SharedL3EvictionAccountingInvariants) {
  const uint64_t seed = GetParam();
  const CacheGeometry geometry{16 * 1024, 4};
  SharedCacheDomain domain(geometry);
  uint64_t displaced, occupied;
  const auto stats = DriveSharedL3(seed, &domain, &displaced, &occupied);
  uint64_t occupancy_sum = 0, charged = 0, caused = 0;
  for (const SharedCacheDomain::OwnerStats& s : stats) {
    occupancy_sum += s.occupancy_lines;
    charged += s.evictions_suffered + s.self_evictions;
    caused += s.evictions_caused;
    EXPECT_LE(s.occupancy_lines, s.peak_occupancy_lines);
    EXPECT_LE(s.peak_occupancy_lines, domain.capacity_lines());
  }
  // Every resident line is owned by exactly one owner.
  EXPECT_EQ(occupancy_sum, domain.total_occupancy_lines());
  EXPECT_EQ(occupancy_sum, occupied) << "seed=" << seed;
  EXPECT_LE(occupancy_sum, domain.capacity_lines());
  // Every displaced line was charged to exactly one victim, and every
  // cross-owner eviction has an aggressor.
  EXPECT_EQ(charged, displaced) << "seed=" << seed;
  uint64_t suffered = 0;
  for (const auto& s : stats) suffered += s.evictions_suffered;
  EXPECT_EQ(caused, suffered);
  // The trace overflows the cache by construction.
  EXPECT_GT(displaced, 0u);
  EXPECT_EQ(occupied, domain.capacity_lines());

  // Clear() drops contents and statistics but keeps registrations.
  domain.Clear();
  EXPECT_EQ(domain.num_owners(), stats.size());
  EXPECT_EQ(domain.total_occupancy_lines(), 0u);
  EXPECT_EQ(domain.lines_displaced(), 0u);
  EXPECT_EQ(domain.level().occupied_lines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace nipo
