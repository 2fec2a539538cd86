#include "cost/markov.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include "common/prng.h"

namespace nipo {
namespace {

TEST(MarkovTest, StationaryDistributionSumsToOne) {
  for (int states : {2, 4, 6, 8}) {
    for (double p : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      const auto pi = MarkovStationaryDistribution(
          PredictorConfig::Symmetric(states), p);
      const double sum = std::accumulate(pi.begin(), pi.end(), 0.0);
      EXPECT_NEAR(sum, 1.0, 1e-12) << "states=" << states << " p=" << p;
    }
  }
}

TEST(MarkovTest, DegenerateSelectivities) {
  const PredictorConfig cfg = PredictorConfig::Symmetric(6);
  // p = 1: every branch not taken -> all mass at the not-taken end.
  auto pi = MarkovStationaryDistribution(cfg, 1.0);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
  // p = 0: every branch taken -> all mass at the taken end.
  pi = MarkovStationaryDistribution(cfg, 0.0);
  EXPECT_DOUBLE_EQ(pi[5], 1.0);
}

TEST(MarkovTest, FiftyPercentIsUniform) {
  // At p = 0.5 the chain's ratio r = 1, so the stationary distribution is
  // uniform across states.
  const auto pi =
      MarkovStationaryDistribution(PredictorConfig::Symmetric(6), 0.5);
  for (double mass : pi) EXPECT_NEAR(mass, 1.0 / 6, 1e-12);
}

TEST(MarkovTest, ClosedFormMatchesPowerIteration) {
  for (int states : {2, 4, 5, 6, 7, 8}) {
    for (int nt = 1; nt < states; ++nt) {
      const PredictorConfig cfg{states, nt};
      for (double p : {0.05, 0.3, 0.5, 0.8, 0.95}) {
        const auto closed = MarkovStationaryDistribution(cfg, p);
        const auto iterated = MarkovStationaryByIteration(cfg, p);
        for (int i = 0; i < states; ++i) {
          EXPECT_NEAR(closed[static_cast<size_t>(i)],
                      iterated[static_cast<size_t>(i)], 1e-6)
              << "states=" << states << " nt=" << nt << " p=" << p;
        }
      }
    }
  }
}

TEST(MarkovTest, BranchProbabilitiesPartition) {
  const PredictorConfig cfg = PredictorConfig::Symmetric(6);
  for (double p : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    const BranchProbabilities probs = ComputeBranchProbabilities(cfg, p);
    EXPECT_NEAR(probs.predict_taken + probs.predict_not_taken, 1.0, 1e-12);
    // mp + rp covers every branch.
    EXPECT_NEAR(probs.mp + probs.rp, 1.0, 1e-12);
    EXPECT_NEAR(probs.mp, probs.taken_mp + probs.not_taken_mp, 1e-12);
    EXPECT_GE(probs.mp, 0.0);
    EXPECT_LE(probs.mp, 0.5 + 1e-12);  // never worse than a coin flip
  }
}

TEST(MarkovTest, MispredictionPeaksAtFifty) {
  const PredictorConfig cfg = PredictorConfig::Symmetric(6);
  const double at_half = ComputeBranchProbabilities(cfg, 0.5).mp;
  for (double p : {0.1, 0.25, 0.4, 0.6, 0.75, 0.9}) {
    EXPECT_LE(ComputeBranchProbabilities(cfg, p).mp, at_half + 1e-12)
        << "p=" << p;
  }
}

TEST(MarkovTest, SymmetricChainIsSymmetricInP) {
  const PredictorConfig cfg = PredictorConfig::Symmetric(6);
  for (double p : {0.1, 0.3, 0.45}) {
    const BranchProbabilities low = ComputeBranchProbabilities(cfg, p);
    const BranchProbabilities high =
        ComputeBranchProbabilities(cfg, 1.0 - p);
    EXPECT_NEAR(low.mp, high.mp, 1e-12);
    // Taken mispredictions at p mirror not-taken mispredictions at 1-p.
    EXPECT_NEAR(low.taken_mp, high.not_taken_mp, 1e-12);
  }
}

TEST(MarkovTest, MoreStatesMispredictLessAtLowSelectivity) {
  // Deeper counters resist rare flips better: at p = 0.1 an 8-state chain
  // mispredicts no more than a 2-state chain.
  const double mp2 =
      ComputeBranchProbabilities(PredictorConfig::Symmetric(2), 0.1).mp;
  const double mp8 =
      ComputeBranchProbabilities(PredictorConfig::Symmetric(8), 0.1).mp;
  EXPECT_LE(mp8, mp2 + 1e-12);
}

TEST(MarkovTest, ZeuchBaselineShape) {
  EXPECT_DOUBLE_EQ(ZeuchMispredictionFraction(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ZeuchMispredictionFraction(0.5), 0.5);
  EXPECT_DOUBLE_EQ(ZeuchMispredictionFraction(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ZeuchMispredictionFraction(0.3), 0.3);
  EXPECT_DOUBLE_EQ(ZeuchMispredictionFraction(0.7), 0.3);
}

TEST(MarkovTest, MarkovExceedsZeuchBaselineNearFifty) {
  // The paper's point (Section 3.2): the piecewise-linear baseline of
  // Zeuch et al. [23] "becomes inaccurate in the selectivity range around
  // 50%" -- a real saturating-counter predictor mispredicts *more* than
  // the Bayes-optimal min(p, 1-p) there, which the Markov chain captures.
  const PredictorConfig cfg = PredictorConfig::Symmetric(6);
  for (double p : {0.3, 0.4, 0.45, 0.55, 0.6, 0.7}) {
    EXPECT_GT(ComputeBranchProbabilities(cfg, p).mp,
              ZeuchMispredictionFraction(p))
        << "p=" << p;
  }
  // At the extremes the two agree.
  EXPECT_NEAR(ComputeBranchProbabilities(cfg, 0.0).mp,
              ZeuchMispredictionFraction(0.0), 1e-12);
  EXPECT_NEAR(ComputeBranchProbabilities(cfg, 1.0).mp,
              ZeuchMispredictionFraction(1.0), 1e-12);
}

// --- The log/exp form the closed form replaced ---------------------------
//
// pi[i] = exp(i log r - max_j j log r) / sum, r = (1-p)/p, with the point
// masses special-cased: the form ComputeBranchProbabilities used before it
// summed the weights q^i p^(N-1-i) directly.

BranchProbabilities LogExpBranchProbabilities(const PredictorConfig& config,
                                              double p) {
  const int n = config.num_states;
  std::vector<double> pi(static_cast<size_t>(n), 0.0);
  if (p == 0.0) {
    pi[static_cast<size_t>(n - 1)] = 1.0;
  } else if (p == 1.0) {
    pi[0] = 1.0;
  } else {
    const double log_r = std::log((1.0 - p) / p);
    double max_log = -1e300;
    for (int i = 0; i < n; ++i) {
      pi[static_cast<size_t>(i)] = i * log_r;
      max_log = std::max(max_log, i * log_r);
    }
    double sum = 0.0;
    for (double& w : pi) {
      w = std::exp(w - max_log);
      sum += w;
    }
    for (double& w : pi) w /= sum;
  }
  BranchProbabilities out;
  for (int i = 0; i < n; ++i) {
    (i < config.not_taken_states ? out.predict_not_taken
                                 : out.predict_taken) +=
        pi[static_cast<size_t>(i)];
  }
  const double q = 1.0 - p;
  out.taken_mp = q * out.predict_not_taken;
  out.taken_rp = q * out.predict_taken;
  out.not_taken_mp = p * out.predict_taken;
  out.not_taken_rp = p * out.predict_not_taken;
  out.mp = out.taken_mp + out.not_taken_mp;
  out.rp = out.taken_rp + out.not_taken_rp;
  return out;
}

double RelativeDifference(double a, double b) {
  if (a == b) return 0.0;
  return std::abs(a - b) / std::max(std::abs(a), std::abs(b));
}

TEST(MarkovTest, MatchesLogExpForm) {
  std::vector<PredictorConfig> configs;
  for (int states = 2; states <= 32; states += 2) {
    configs.push_back(PredictorConfig::Symmetric(states));
  }
  for (int states : {5, 7}) {
    configs.push_back(PredictorConfig::PlusOneTaken(states));
    configs.push_back(PredictorConfig::PlusOneNotTaken(states));
  }
  const double kOneMinusUlp = 1.0 - 0x1p-53;
  const std::vector<double> grid = {0.0,  1e-300, 1e-10, 1e-3, 0.05,
                                    0.2,  0.3,    0.45,  0.5,  0.55,
                                    0.7,  0.8,    0.95,  0.999,
                                    kOneMinusUlp, 1.0};
  for (const PredictorConfig& cfg : configs) {
    for (const double p : grid) {
      const BranchProbabilities got = ComputeBranchProbabilities(cfg, p);
      const BranchProbabilities want = LogExpBranchProbabilities(cfg, p);
      const std::pair<double, double> fields[] = {
          {got.predict_taken, want.predict_taken},
          {got.predict_not_taken, want.predict_not_taken},
          {got.taken_mp, want.taken_mp},
          {got.taken_rp, want.taken_rp},
          {got.not_taken_mp, want.not_taken_mp},
          {got.not_taken_rp, want.not_taken_rp},
          {got.mp, want.mp},
          {got.rp, want.rp},
      };
      for (size_t f = 0; f < std::size(fields); ++f) {
        EXPECT_LE(RelativeDifference(fields[f].first, fields[f].second),
                  1e-13)
            << "states=" << cfg.num_states << " nt=" << cfg.not_taken_states
            << " p=" << p << " field=" << f << " got=" << fields[f].first
            << " want=" << fields[f].second;
      }
    }
  }
}

TEST(MarkovTest, ManyStatesStayFiniteAndNormalized) {
  // Far past any predictor the paper models: the geometric weights start
  // at exactly 1 and only shrink, so no state count overflows them.
  for (int states : {64, 2048}) {
    const PredictorConfig cfg = PredictorConfig::Symmetric(states);
    for (double p : {0.5, 1e-3}) {
      const auto pi = MarkovStationaryDistribution(cfg, p);
      ASSERT_EQ(pi.size(), static_cast<size_t>(states));
      for (double mass : pi) {
        ASSERT_TRUE(std::isfinite(mass)) << "states=" << states << " p=" << p;
        ASSERT_GE(mass, 0.0);
      }
      EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12)
          << "states=" << states << " p=" << p;
      const BranchProbabilities probs = ComputeBranchProbabilities(cfg, p);
      for (double v : {probs.predict_taken, probs.predict_not_taken,
                       probs.taken_mp, probs.not_taken_mp, probs.mp,
                       probs.rp}) {
        EXPECT_TRUE(std::isfinite(v)) << "states=" << states << " p=" << p;
      }
      EXPECT_NEAR(probs.predict_taken + probs.predict_not_taken, 1.0, 1e-12);
      EXPECT_NEAR(probs.mp + probs.rp, 1.0, 1e-12);
    }
  }
  // At p = 0.5 every state weighs exactly 1.
  const auto uniform =
      MarkovStationaryDistribution(PredictorConfig::Symmetric(2048), 0.5);
  for (double mass : uniform) EXPECT_EQ(mass, 1.0 / 2048);
}

class MarkovVsSimulationTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MarkovVsSimulationTest, StationaryModelMatchesSimulatedPredictor) {
  // The analytic chain must reproduce the simulated hardware unit's
  // long-run misprediction splits on i.i.d. branches.
  const int states = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  const PredictorConfig cfg = PredictorConfig::Symmetric(states);
  BranchPredictor bp(cfg);
  bp.EnsureSites(1);
  Prng prng(1234);
  const int kWarmup = 2000, kSamples = 400'000;
  for (int i = 0; i < kWarmup; ++i) bp.Observe(0, !prng.NextBool(p));
  int64_t taken_mp = 0, not_taken_mp = 0;
  for (int i = 0; i < kSamples; ++i) {
    const bool taken = !prng.NextBool(p);
    const BranchOutcome out = bp.Observe(0, taken);
    if (out.mispredicted) {
      if (taken) {
        ++taken_mp;
      } else {
        ++not_taken_mp;
      }
    }
  }
  const BranchProbabilities probs = ComputeBranchProbabilities(cfg, p);
  EXPECT_NEAR(static_cast<double>(taken_mp) / kSamples, probs.taken_mp,
              0.01);
  EXPECT_NEAR(static_cast<double>(not_taken_mp) / kSamples,
              probs.not_taken_mp, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MarkovVsSimulationTest,
    ::testing::Combine(::testing::Values(2, 4, 6, 8),
                       ::testing::Values(0.05, 0.2, 0.5, 0.8, 0.95)));

}  // namespace
}  // namespace nipo
