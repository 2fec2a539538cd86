#include "cost/markov.h"

#include <algorithm>
#include <cmath>

/// \file markov.cc
/// Closed-form stationary distribution of the saturating-counter
/// birth-death chain and the misprediction probabilities derived from it
/// (Equations 4a-4g and 5a-5f), with care at the p=0, p=1 and p=0.5
/// boundary cases.

namespace nipo {

namespace {

/// Writes the closed-form stationary distribution into pi[0, num_states).
void StationaryDistributionInto(const PredictorConfig& config, double p,
                                double* pi) {
  NIPO_CHECK(config.Valid());
  const int n = config.num_states;
  std::fill(pi, pi + n, 0.0);
  p = std::clamp(p, 0.0, 1.0);
  if (p == 0.0) {
    pi[n - 1] = 1.0;  // every branch taken
    return;
  }
  if (p == 1.0) {
    pi[0] = 1.0;  // every branch not taken
    return;
  }
  const double r = (1.0 - p) / p;
  // pi[i] = r^i / sum_j r^j. Compute in a numerically stable way by
  // normalizing against the largest term; pi holds the log-weights, then
  // the weights, then the distribution.
  double max_log = -1e300;
  const double log_r = std::log(r);
  for (int i = 0; i < n; ++i) {
    const double lw = i * log_r;
    pi[i] = lw;
    max_log = std::max(max_log, lw);
  }
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    pi[i] = std::exp(pi[i] - max_log);
    sum += pi[i];
  }
  for (int i = 0; i < n; ++i) pi[i] /= sum;
}

}  // namespace

std::vector<double> MarkovStationaryDistribution(const PredictorConfig& config,
                                                 double p) {
  NIPO_CHECK(config.Valid());
  std::vector<double> pi(static_cast<size_t>(config.num_states));
  StationaryDistributionInto(config, p, pi.data());
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
  // The estimator evaluates this per predicate per objective call: keep
  // the distribution on the stack for every predictor the paper models.
  constexpr int kStackStates = 32;
  double stack_pi[kStackStates];
  std::vector<double> heap_pi;
  double* pi = stack_pi;
  if (config.num_states > kStackStates) {
    heap_pi.resize(static_cast<size_t>(config.num_states));
    pi = heap_pi.data();
  }
  StationaryDistributionInto(config, p, pi);
  BranchProbabilities out;
  for (int i = 0; i < config.num_states; ++i) {
    if (i < config.not_taken_states) {
      out.predict_not_taken += pi[i];
    } else {
      out.predict_taken += pi[i];
    }
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

double ZeuchMispredictionFraction(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return std::min(p, 1.0 - p);
}

}  // namespace nipo
