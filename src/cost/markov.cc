#include "cost/markov.h"

#include <algorithm>

/// \file markov.cc
/// Closed-form stationary distribution of the saturating-counter
/// birth-death chain and the misprediction probabilities derived from it
/// (Equations 4a-4g and 5a-5f), computed with multiplications only.

namespace nipo {

namespace {

/// Calls visit(i, w_i) once for every state i of the chain, where
/// w_i = q^i * p^(N-1-i) / max(p, q)^(N-1) is state i's unnormalized
/// stationary weight (q = 1 - p). After the division by max(p, q) one of
/// the two factors is exactly 1, so the weights are one geometric
/// sequence that starts at exactly 1 at the heavier end and only shrinks:
/// no overflow, underflow only of negligible mass, and 0^0 = 1 gives the
/// point masses at p = 0 and p = 1.
template <typename Visit>
void VisitStationaryWeights(const PredictorConfig& config, double p,
                            Visit&& visit) {
  NIPO_CHECK(config.Valid());
  const int n = config.num_states;
  p = std::clamp(p, 0.0, 1.0);
  const double q = 1.0 - p;
  double w = 1.0;
  if (p >= q) {
    const double ratio = q / p;  // w_i = ratio^i, heaviest at state 0
    for (int i = 0; i < n; ++i, w *= ratio) visit(i, w);
  } else {
    const double ratio = p / q;  // w_i = ratio^(N-1-i), heaviest at N-1
    for (int i = n - 1; i >= 0; --i, w *= ratio) visit(i, w);
  }
}

}  // namespace

std::vector<double> MarkovStationaryDistribution(const PredictorConfig& config,
                                                 double p) {
  NIPO_CHECK(config.Valid());
  std::vector<double> pi(static_cast<size_t>(config.num_states));
  double sum = 0.0;
  VisitStationaryWeights(config, p, [&](int i, double w) {
    pi[static_cast<size_t>(i)] = w;
    sum += w;
  });
  for (double& mass : pi) mass /= sum;
  return pi;
}

std::vector<double> MarkovStationaryByIteration(const PredictorConfig& config,
                                                double p, int iterations) {
  NIPO_CHECK(config.Valid());
  const int n = config.num_states;
  p = std::clamp(p, 0.0, 1.0);
  const double q = 1.0 - p;
  std::vector<double> pi(static_cast<size_t>(n),
                         1.0 / static_cast<double>(n));
  std::vector<double> next(static_cast<size_t>(n), 0.0);
  for (int iter = 0; iter < iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      const double mass = pi[static_cast<size_t>(i)];
      // Not taken (prob p): move left, saturating at 0.
      const int left = std::max(0, i - 1);
      next[static_cast<size_t>(left)] += mass * p;
      // Taken (prob q): move right, saturating at n-1.
      const int right = std::min(n - 1, i + 1);
      next[static_cast<size_t>(right)] += mass * q;
    }
    std::swap(pi, next);
  }
  return pi;
}

BranchProbabilities ComputeBranchProbabilities(const PredictorConfig& config,
                                               double p) {
  p = std::clamp(p, 0.0, 1.0);
  // The estimator evaluates this per predicate per objective call, so the
  // weights go straight into the two predicted-direction sums.
  double not_taken_weight = 0.0;
  double taken_weight = 0.0;
  VisitStationaryWeights(config, p, [&](int i, double w) {
    (i < config.not_taken_states ? not_taken_weight : taken_weight) += w;
  });
  BranchProbabilities out;
  const double sum = not_taken_weight + taken_weight;
  out.predict_not_taken = not_taken_weight / sum;
  out.predict_taken = taken_weight / sum;
  const double q = 1.0 - p;
  out.taken_mp = q * out.predict_not_taken;
  out.taken_rp = q * out.predict_taken;
  out.not_taken_mp = p * out.predict_taken;
  out.not_taken_rp = p * out.predict_not_taken;
  out.mp = out.taken_mp + out.not_taken_mp;
  out.rp = out.taken_rp + out.not_taken_rp;
  return out;
}

double ZeuchMispredictionFraction(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return std::min(p, 1.0 - p);
}

}  // namespace nipo
