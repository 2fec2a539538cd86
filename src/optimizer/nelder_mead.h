#pragma once

#include <functional>
#include <vector>

#include "common/result.h"

/// \file nelder_mead.h
/// Nelder-Mead simplex minimization with box constraints (paper Section
/// 4.2: the paper uses NLopt's Nelder-Mead [15] as the local optimizer of
/// its selectivity-estimation objective; this is a from-scratch
/// implementation with the same termination knobs -- absolute tolerance
/// and maximum iteration count).

namespace nipo {

/// Objective: maps a point to a finite cost.
using ObjectiveFn = std::function<double(const std::vector<double>&)>;

/// \brief Termination and behaviour knobs. The defaults mirror the
/// paper's tuning: "a maximum iteration count of 10k and an absolute
/// tolerance of one result in the best estimations". (The tolerance is in
/// objective units; callers with normalized objectives pass their own.)
struct NelderMeadOptions {
  int max_iterations = 10'000;
  double abs_tolerance = 1.0;  ///< stop when f(worst) - f(best) < this
  /// Initial simplex spread as a fraction of the box extent per dimension.
  double initial_step = 0.10;
};

/// \brief Outcome of one minimization run.
struct NelderMeadResult {
  std::vector<double> x;       ///< best point found
  double value = 0.0;          ///< objective at x
  int iterations = 0;          ///< simplex iterations performed
  bool converged = false;      ///< tolerance met before iteration limit
};

/// \brief Minimizes `objective` starting from `start`, constraining every
/// coordinate i to [lower[i], upper[i]] (candidate points are clamped to
/// the box, the conventional bound handling for Nelder-Mead).
///
/// Errors: dimension mismatches or an empty box return InvalidArgument.
Result<NelderMeadResult> NelderMeadMinimize(const ObjectiveFn& objective,
                                            std::vector<double> start,
                                            const std::vector<double>& lower,
                                            const std::vector<double>& upper,
                                            const NelderMeadOptions& options);

}  // namespace nipo
