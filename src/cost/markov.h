#pragma once

#include <vector>

#include "hw/branch_predictor.h"

/// \file markov.h
/// Analytic model of the saturating-counter branch predictor (paper
/// Section 3.2, Figure 5, Equations 4a-4g and 5a-5f).
///
/// The predictor is a birth-death Markov chain over N states: with
/// probability p (the selectivity; a qualifying tuple means the branch is
/// NOT taken) the state moves one step toward the "strongly not taken"
/// end, with probability 1-p one step toward "strongly taken", saturating
/// at the ends. Solving for the stationary distribution gives the
/// long-run probability that the predictor currently predicts taken or
/// not-taken, from which the misprediction rates follow:
///
///   BTakMP    = (1-p) * BNotTak   (taken branch, predicted not-taken)
///   BTakRP    = (1-p) * BTak
///   BNotTakMP =  p    * BTak      (not-taken branch, predicted taken)
///   BNotTakRP =  p    * BNotTak
///   BMP       = BTakMP + BNotTakMP
///
/// (The paper's Equation 5e prints BMP = BTakMP + BNotTakRP; that is a
/// typo -- the sum of the two misprediction classes is the total, as
/// Figures 3 and 6 confirm. We implement the corrected form.)

namespace nipo {

/// \brief Stationary distribution of the N-state chain at selectivity p.
///
/// For a birth-death chain with constant step probabilities the stationary
/// mass satisfies pi[i+1]/pi[i] = (1-p)/p = q/p, i.e. pi[i] ~ (q/p)^i.
/// Scaled by p^(N-1) and divided by max(p, q)^(N-1), the weights become
/// w_i = q^i p^(N-1-i) / max(p, q)^(N-1): the largest is exactly 1 for
/// any N, and they are products of one ratio, with no log or exp. p = 0
/// and p = 1 give the point masses at the taken / not-taken end
/// (0^0 = 1).
std::vector<double> MarkovStationaryDistribution(const PredictorConfig& config,
                                                 double p);

/// \brief Same distribution obtained by power iteration on the explicit
/// transition matrix. Slower; used to cross-check the closed form in tests
/// and available for exotic chain variants.
std::vector<double> MarkovStationaryByIteration(const PredictorConfig& config,
                                                double p,
                                                int iterations = 20000);

/// \brief Per-branch prediction/misprediction probabilities at
/// selectivity p, all as fractions of executed branches.
struct BranchProbabilities {
  double predict_taken = 0;      ///< BTak: predictor currently says taken
  double predict_not_taken = 0;  ///< BNotTak
  double taken_mp = 0;           ///< BTakMP
  double taken_rp = 0;           ///< BTakRP
  double not_taken_mp = 0;       ///< BNotTakMP
  double not_taken_rp = 0;       ///< BNotTakRP
  double mp = 0;                 ///< BMP = taken_mp + not_taken_mp
  double rp = 0;                 ///< BRP
};

/// \brief Evaluates Equations 5a-5f for the given predictor at
/// selectivity p. Sums the same weights straight into the two
/// predicted-direction masses; allocation-free for any state count.
BranchProbabilities ComputeBranchProbabilities(const PredictorConfig& config,
                                               double p);

/// \brief The coarse baseline of Zeuch et al. [23] (paper Equation 3):
/// misprediction fraction = min(p, 1-p). Used as the comparison line in
/// Figure 6.
double ZeuchMispredictionFraction(double p);

}  // namespace nipo
