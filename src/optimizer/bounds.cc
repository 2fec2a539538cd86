#include "optimizer/bounds.h"

#include <algorithm>
#include <cmath>

/// \file bounds.cc
/// Derivation of the per-position access-count bounds (Equations 6-9)
/// from a counter sample, and the access-count to selectivity
/// conversion.

namespace nipo {

bool SearchBounds::Feasible() const {
  if (lower.size() != upper.size()) return false;
  for (size_t i = 0; i < lower.size(); ++i) {
    if (lower[i] > upper[i] + 1e-9) return false;
  }
  return true;
}

namespace {

Status ValidateCardinalities(double tupsin, double tupsout, size_t n) {
  if (n == 0) return Status::InvalidArgument("need at least one predicate");
  if (tupsin < 0 || tupsout < 0) {
    return Status::InvalidArgument("negative cardinality");
  }
  if (tupsout > tupsin) {
    return Status::InvalidArgument("tupsout exceeds tupsin");
  }
  return Status::OK();
}

}  // namespace

Result<SearchBounds> ComputeTupleBounds(double tupsin, double tupsout,
                                        size_t num_predicates) {
  NIPO_RETURN_NOT_OK(ValidateCardinalities(tupsin, tupsout, num_predicates));
  SearchBounds b;
  b.lower.assign(num_predicates, tupsout);
  b.upper.assign(num_predicates, tupsin);
  b.upper.back() = tupsout;  // Eq. 6: the last position emits the output
  return b;
}

Result<SearchBounds> ComputeBntBounds(double tupsin, double tupsout,
                                      double bnt_sample,
                                      size_t num_predicates) {
  NIPO_RETURN_NOT_OK(ValidateCardinalities(tupsin, tupsout, num_predicates));
  const double n = static_cast<double>(num_predicates);
  if (bnt_sample < tupsout * n - 1e-9 || bnt_sample > tupsin * (n - 1) +
                                                          tupsout + 1e-9) {
    return Status::OutOfRange(
        "BNT sample " + std::to_string(bnt_sample) +
        " outside the feasible range for these cardinalities");
  }
  SearchBounds b;
  b.lower.assign(num_predicates, tupsout);
  b.upper.assign(num_predicates, tupsin);
  for (size_t i = 0; i < num_predicates; ++i) {
    const double k = static_cast<double>(i + 1);
    if (i + 1 == num_predicates) {
      b.lower[i] = tupsout;
      b.upper[i] = tupsout;
      continue;
    }
    // Upper: positions 1..k all at the same maximum, the rest at tupsout.
    double upper = (bnt_sample - (n - k) * tupsout) / k;
    upper = std::min(upper, tupsin);
    upper = std::max(upper, tupsout);
    b.upper[i] = upper;
    // Lower: predecessors at tupsin, successors squeezed below acc_k.
    double lower = (bnt_sample - tupsout - (k - 1) * tupsin) / (n - k);
    lower = std::max(lower, tupsout);
    lower = std::min(lower, tupsin);
    b.lower[i] = lower;
  }
  return b;
}

Result<SearchBounds> IntersectBounds(const SearchBounds& a,
                                     const SearchBounds& b) {
  if (a.lower.size() != a.upper.size() || b.lower.size() != b.upper.size()) {
    return Status::InvalidArgument("malformed bounds (lower/upper differ)");
  }
  if (a.size() != b.size()) {
    return Status::InvalidArgument("bound dimensionality mismatch");
  }
  SearchBounds out;
  out.lower.resize(a.size());
  out.upper.resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    out.lower[i] = std::max(a.lower[i], b.lower[i]);
    out.upper[i] = std::min(a.upper[i], b.upper[i]);
  }
  if (!out.Feasible()) {
    return Status::OutOfRange("bound intersection is empty");
  }
  return out;
}

Result<SearchBounds> RestrictSearchSpace(double tupsin, double tupsout,
                                         double bnt_sample,
                                         size_t num_predicates) {
  NIPO_ASSIGN_OR_RETURN(SearchBounds tuple,
                        ComputeTupleBounds(tupsin, tupsout, num_predicates));
  NIPO_ASSIGN_OR_RETURN(
      SearchBounds bnt,
      ComputeBntBounds(tupsin, tupsout, bnt_sample, num_predicates));
  return IntersectBounds(tuple, bnt);
}

std::vector<double> AccessesToSelectivities(double tupsin,
                                            const std::vector<double>& acc) {
  std::vector<double> s;
  AccessesToSelectivities(tupsin, acc, &s);
  return s;
}

void AccessesToSelectivities(double tupsin, const std::vector<double>& acc,
                             std::vector<double>* out) {
  out->resize(acc.size());
  double prev = tupsin;
  for (size_t i = 0; i < acc.size(); ++i) {
    if (prev > 1e-12) {
      (*out)[i] = std::clamp(acc[i] / prev, 0.0, 1.0);
    } else {
      (*out)[i] = 1.0;  // no tuples reached this predicate: no information
    }
    prev = acc[i];
  }
}

}  // namespace nipo
