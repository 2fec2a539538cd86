#pragma once

#include <cstddef>
#include <vector>

#include "common/result.h"

/// \file bounds.h
/// Search-space restriction (paper Section 4.1, Equations 6-9).
///
/// For a query with n predicates over tupsin input tuples producing
/// tupsout output tuples, the unknowns are the per-position *access
/// counts* acc_1..acc_n: acc_k is the number of tuples that survive the
/// first k predicates of the evaluation order, which equals both the
/// branches-not-taken of predicate k and the number of accesses to the
/// (k+1)-th column in the chain. The known facts
///
///   tupsin >= acc_1 >= acc_2 >= ... >= acc_n = tupsout
///   sum_k acc_k = BNT_sample        (exact, CPU-independent)
///
/// bound each acc_k from both sides:
///
///   Tuple bounds (Eq. 6-7):  tupsout <= acc_k <= tupsin (acc_n = tupsout)
///   Upper BNT bound:  acc_k <= (BNT - (n-k) * tupsout) / k
///     (push acc_1..acc_k all up to the same maximum, floor the rest)
///   Lower BNT bound:  acc_k >= (BNT - tupsout - (k-1) * tupsin) / (n-k)
///     (push the predecessors to tupsin, successors down to acc_k)
///
/// Note: the paper's printed Equation 9 divides by (n-1) for every
/// position; that reproduces its Figure 7 example only for k = 1. The
/// derivation above -- maximize the other positions subject to
/// monotonicity -- requires (n-k), which also matches the example's
/// remaining values ([67, 50, 10, 10]); we implement the corrected form.

namespace nipo {

/// \brief Elementwise lower/upper bounds on acc_1..acc_n.
struct SearchBounds {
  std::vector<double> lower;
  std::vector<double> upper;

  size_t size() const { return lower.size(); }

  /// True iff every interval is non-empty (lower <= upper).
  bool Feasible() const;
};

/// \brief Equations 6-7: bounds from input/output cardinalities alone.
Result<SearchBounds> ComputeTupleBounds(double tupsin, double tupsout,
                                        size_t num_predicates);

/// \brief Equations 8-9 (corrected): bounds from the sampled
/// branches-not-taken total. `bnt_sample` must include the tupsout
/// accesses of the final position.
Result<SearchBounds> ComputeBntBounds(double tupsin, double tupsout,
                                      double bnt_sample,
                                      size_t num_predicates);

/// \brief Intersection of two bound sets (max of lowers, min of uppers).
Result<SearchBounds> IntersectBounds(const SearchBounds& a,
                                     const SearchBounds& b);

/// \brief Combined restriction: tuple bounds intersected with BNT bounds,
/// the full Section 4.1 pruning.
Result<SearchBounds> RestrictSearchSpace(double tupsin, double tupsout,
                                         double bnt_sample,
                                         size_t num_predicates);

/// \brief Converts access counts to per-predicate selectivities:
/// s_k = acc_k / acc_{k-1} with acc_0 = tupsin. Zero predecessors yield
/// selectivity 1 (no information).
std::vector<double> AccessesToSelectivities(double tupsin,
                                            const std::vector<double>& acc);

/// \brief As above, into `out` (resized to acc.size()): allocation-free
/// once `out` has the capacity.
void AccessesToSelectivities(double tupsin, const std::vector<double>& acc,
                             std::vector<double>* out);

}  // namespace nipo
