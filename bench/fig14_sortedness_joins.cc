/// \file fig14_sortedness_joins.cc
/// Figure 14: exploitation of sortedness. A query combining an expensive
/// selection with a foreign-key join runs selection-first and join-first
/// on data sets of decreasing sortedness -- bounded Knuth shuffles whose
/// distance sweeps from one tuple (1T) through the cache-line / L1 / L2 /
/// L3 capacities to full memory randomness (Mem). Reported per distance:
/// run-time (a) and L3 cache misses (b) for both orders.

#include "bench_util.h"
#include "common/prng.h"

using namespace nipo;
using namespace nipo::bench;

int main() {
  const size_t kFact = 300'000;
  const size_t kDim = 150'000;
  const uint64_t kCacheDivisor = 64;
  const HwConfig hw = HwConfig::ScaledXeon(kCacheDivisor);
  // Shuffle distances in tuples (4 B keys): 1T, one cache line, 100T,
  // 1KT, L1-, L2-, L3-sized windows, full table (Mem).
  struct Distance {
    std::string label;
    size_t tuples;
  };
  std::vector<Distance> distances = {
      {"1T", 1},
      {"CL", kCacheLineBytes / 4},
      {"100T", 100},
      {"1KT", 1'000},
      {"L1", hw.l1.capacity_bytes / 4},
      {"L2", hw.l2.capacity_bytes / 4},
      {"L3", hw.l3.capacity_bytes / 4},
      {"Mem", kFact},
  };
  // The scaled machine's cache capacities interleave with the fixed
  // tuple-count distances; present the sweep in increasing disorder.
  std::sort(distances.begin(), distances.end(),
            [](const Distance& a, const Distance& b) {
              return a.tuples < b.tuples;
            });

  TablePrinter table(
      "Figure 14: expensive selection + FK join under decreasing "
      "sortedness");
  table.SetHeader({"sortiness", "sel-first ms", "join-first ms",
                   "sel-first L3 miss", "join-first L3 miss",
                   "join-first wins"});

  for (const Distance& d : distances) {
    // Fact table co-clustered with the dimension, then shuffled within
    // the given window.
    Prng prng(71);
    std::vector<int32_t> fk(kFact), sel_col(kFact);
    for (size_t i = 0; i < kFact; ++i) {
      fk[i] = static_cast<int32_t>((i * kDim) / kFact);
      sel_col[i] = static_cast<int32_t>(prng.NextBounded(1000));
    }
    auto fact = std::make_unique<Table>("fact");
    NIPO_CHECK(fact->AddColumn("fk", std::move(fk)).ok());
    NIPO_CHECK(fact->AddColumn("sel_col", std::move(sel_col)).ok());
    const auto perm =
        BoundedKnuthShufflePermutation(kFact, d.tuples, &prng);
    NIPO_CHECK(ApplyRowPermutation(fact.get(), perm).ok());

    std::vector<int32_t> attr(kDim);
    Prng dim_prng(72);
    for (size_t i = 0; i < kDim; ++i) {
      attr[i] = static_cast<int32_t>(dim_prng.NextBounded(1000));
    }
    auto dim = std::make_unique<Table>("dim");
    NIPO_CHECK(dim->AddColumn("attr", std::move(attr)).ok());

    Engine engine(hw);
    NIPO_CHECK(engine.RegisterTable(std::move(fact)).ok());
    NIPO_CHECK(engine.RegisterTable(std::move(dim)).ok());

    QuerySpec query;
    query.table = "fact";
    PredicateSpec expensive{"sel_col", CompareOp::kLt, 500.0};
    expensive.extra_instructions = 24.0;
    query.ops = {
        OperatorSpec::Predicate(expensive),
        OperatorSpec::FkProbe({"fk", engine.GetTable("dim").ValueOrDie(),
                               "attr", CompareOp::kLt, 600.0}),
    };

    ExecOptions options;
    options.vector_size = 8'192;
    options.order = std::vector<size_t>{0, 1};
    auto sel_first = engine.Execute(query, options);
    options.order = std::vector<size_t>{1, 0};
    auto join_first = engine.Execute(query, options);
    NIPO_CHECK(sel_first.ok() && join_first.ok());
    const ExecReport& s = sel_first.ValueOrDie();
    const ExecReport& j = join_first.ValueOrDie();
    table.AddRow({d.label, FormatDouble(s.simulated_msec, 2),
                  FormatDouble(j.simulated_msec, 2),
                  std::to_string(s.counters.l3_misses),
                  std::to_string(j.counters.l3_misses),
                  j.simulated_msec < s.simulated_msec ? "yes" : "no"});
  }
  table.Print(std::cout);
  std::cout
      << "Paper shape: join-first wins while the shuffle distance stays\n"
         "within ~2x the L1 capacity (local probes are nearly free); past\n"
         "the break-even the probe thrashes and selection-first wins. The\n"
         "run-time trend tracks the L3-miss trend -- the signal only a\n"
         "cache counter (not a tuple counter) can deliver.\n";
  return 0;
}
