#include "optimizer/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

/// \file nelder_mead.cc
/// Box-constrained Nelder-Mead downhill simplex: reflection, expansion,
/// contraction and shrink steps with every candidate clamped to the
/// feasible box, terminating on absolute tolerance or iteration budget.

namespace nipo {

namespace {

// The standard simplex coefficients.
constexpr double kReflection = 1.0;
constexpr double kExpansion = 2.0;
constexpr double kContraction = 0.5;
constexpr double kShrink = 0.5;

void ClampToBox(std::vector<double>* x, const std::vector<double>& lo,
                const std::vector<double>& hi) {
  for (size_t i = 0; i < x->size(); ++i) {
    (*x)[i] = std::clamp((*x)[i], lo[i], hi[i]);
  }
}

}  // namespace

Result<NelderMeadResult> NelderMeadMinimize(const ObjectiveFn& objective,
                                            std::vector<double> start,
                                            const std::vector<double>& lower,
                                            const std::vector<double>& upper,
                                            const NelderMeadOptions& options) {
  const size_t dim = start.size();
  if (dim == 0) {
    return Status::InvalidArgument("empty start point");
  }
  if (lower.size() != dim || upper.size() != dim) {
    return Status::InvalidArgument("bound dimensionality mismatch");
  }
  for (size_t i = 0; i < dim; ++i) {
    if (lower[i] > upper[i]) {
      return Status::InvalidArgument("empty box: lower > upper");
    }
  }
  if (!objective) {
    return Status::InvalidArgument("null objective");
  }

  ClampToBox(&start, lower, upper);

  // Build the initial simplex: start plus one displaced vertex per axis.
  std::vector<std::vector<double>> simplex;
  simplex.reserve(dim + 1);
  simplex.push_back(start);
  for (size_t i = 0; i < dim; ++i) {
    std::vector<double> v = start;
    const double extent = upper[i] - lower[i];
    double step = options.initial_step * extent;
    if (step == 0.0) step = 1e-9;  // degenerate (pinned) dimension
    // Step away from the nearer bound so the vertex stays distinct.
    if (v[i] + step > upper[i]) {
      v[i] -= step;
    } else {
      v[i] += step;
    }
    ClampToBox(&v, lower, upper);
    simplex.push_back(std::move(v));
  }

  std::vector<double> values(simplex.size());
  for (size_t i = 0; i < simplex.size(); ++i) {
    values[i] = objective(simplex[i]);
  }

  NelderMeadResult result;
  std::vector<size_t> rank(simplex.size());
  std::vector<double> centroid(dim), candidate(dim), reflected_point(dim);

  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::iota(rank.begin(), rank.end(), size_t{0});
    std::sort(rank.begin(), rank.end(),
              [&](size_t a, size_t b) { return values[a] < values[b]; });
    const size_t best = rank.front();
    const size_t worst = rank.back();
    const size_t second_worst = rank[rank.size() - 2];

    if (values[worst] - values[best] < options.abs_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all vertices but the worst.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (size_t r = 0; r + 1 < rank.size(); ++r) {
      const std::vector<double>& v = simplex[rank[r]];
      for (size_t i = 0; i < dim; ++i) centroid[i] += v[i];
    }
    for (size_t i = 0; i < dim; ++i) {
      centroid[i] /= static_cast<double>(dim);
    }

    auto blend = [&](double coeff, const std::vector<double>& away) {
      for (size_t i = 0; i < dim; ++i) {
        candidate[i] = centroid[i] + coeff * (centroid[i] - away[i]);
      }
      ClampToBox(&candidate, lower, upper);
    };

    // Reflect.
    blend(kReflection, simplex[worst]);
    const double reflected = objective(candidate);
    if (reflected < values[best]) {
      // Expand. Every buffer here keeps size `dim`, so the copies and the
      // swap reuse storage instead of allocating.
      reflected_point = candidate;
      blend(kExpansion, simplex[worst]);
      const double expanded = objective(candidate);
      if (expanded < reflected) {
        simplex[worst] = candidate;
        values[worst] = expanded;
      } else {
        std::swap(simplex[worst], reflected_point);
        values[worst] = reflected;
      }
      continue;
    }
    if (reflected < values[second_worst]) {
      simplex[worst] = candidate;
      values[worst] = reflected;
      continue;
    }
    // Contract (toward the worst vertex).
    blend(-kContraction, simplex[worst]);
    const double contracted = objective(candidate);
    if (contracted < values[worst]) {
      simplex[worst] = candidate;
      values[worst] = contracted;
      continue;
    }
    // Shrink everything toward the best vertex.
    for (size_t r = 1; r < rank.size(); ++r) {
      std::vector<double>& v = simplex[rank[r]];
      for (size_t i = 0; i < dim; ++i) {
        v[i] = simplex[best][i] + kShrink * (v[i] - simplex[best][i]);
      }
      ClampToBox(&v, lower, upper);
      values[rank[r]] = objective(v);
    }
  }

  const size_t best_index = static_cast<size_t>(std::distance(
      values.begin(), std::min_element(values.begin(), values.end())));
  result.x = simplex[best_index];
  result.value = values[best_index];
  result.iterations = iter;
  return result;
}

}  // namespace nipo
