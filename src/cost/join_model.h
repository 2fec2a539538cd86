#pragma once

#include <cstdint>

#include "hw/cache.h"

/// \file join_model.h
/// Cache-miss model for equi-joins (paper Section 3.1, Equations 1-2).
///
/// The paper replaces Manegold et al.'s random-miss equation with one
/// grounded in the external-memory model: for r probe accesses into a
/// relation of R.n tuples of width R.w, the expected number of *random*
/// cache misses at a level with capacity #_i lines of B_i bytes is
///
///   Mr_i = C_i                                if C_i < #_i   (fits: each
///                                             accessed line missed once)
///   Mr_i = r * (1 - (#_i * B_i)/(R.n * R.w))  otherwise      (thrashes:
///                                             each probe misses unless it
///                                             lands on a resident line)
///
/// where C_i is the expected number of distinct lines touched by r
/// uniform accesses (Equation 2, the classic distinct-value bound).
///
/// The progressive optimizer uses this model for sortedness detection
/// (Sections 5.5-5.6): it predicts the misses a *random* probe pattern
/// would incur and compares them with the sampled counter; sampling far
/// fewer misses reveals a co-clustered (cache-friendly) join that should
/// run first.

namespace nipo {

/// \brief Probe-side description for the join model.
struct JoinRelationSpec {
  double num_tuples = 0;   ///< R.n: tuples in the probed relation
  double tuple_width = 0;  ///< R.w: bytes per probed tuple (payload touched)
};

/// \brief Equation 2: expected distinct cache lines touched by r uniform
/// random accesses into a relation spanning `total_lines` lines.
double ExpectedDistinctLines(double total_lines, double num_accesses);

/// \brief Equation 1: expected random cache misses at one cache level for
/// `num_accesses` uniform probes into `relation`.
double ExpectedRandomMisses(const JoinRelationSpec& relation,
                            const CacheGeometry& cache, double num_accesses);

}  // namespace nipo
