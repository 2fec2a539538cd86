#include "exec/faults.h"

#include <algorithm>

/// \file faults.cc
/// Stateless fault drawing. Each event hashes (seed, query, attempt,
/// quantum, stream) through splitmix64 finalization rounds and converts
/// the top 53 bits to a uniform double in [0, 1) — the same conversion
/// Prng::NextDouble uses — so transient and stall draws are independent
/// streams of schedule-invariant coin flips.

namespace nipo {

namespace {

constexpr uint64_t kTransientStream = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kStallStream = 0xbf58476d1ce4e5b9ull;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double HashToUnit(uint64_t seed, uint64_t stream, size_t query,
                  size_t attempt, size_t quantum) {
  uint64_t h = Mix64(seed ^ stream);
  h = Mix64(h ^ static_cast<uint64_t>(query));
  h = Mix64(h ^ static_cast<uint64_t>(attempt));
  h = Mix64(h ^ static_cast<uint64_t>(quantum));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::string_view QueryOutcomeToString(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kDeadlineExceeded:
      return "deadline";
    case QueryOutcome::kFailed:
      return "failed";
    case QueryOutcome::kShed:
      return "shed";
  }
  return "unknown";
}

FaultDraw DrawFault(const FaultPlan& plan, size_t query, size_t attempt,
                    size_t quantum) {
  FaultDraw draw;
  if (plan.transient_fault_rate > 0 &&
      HashToUnit(plan.seed, kTransientStream, query, attempt, quantum) <
          plan.transient_fault_rate) {
    draw.transient = true;
  }
  if (plan.stall_rate > 0 &&
      HashToUnit(plan.seed, kStallStream, query, attempt, quantum) <
          plan.stall_rate) {
    draw.stall = true;
  }
  return draw;
}

double RetryBackoffMsec(const RetryPolicy& policy, size_t retry_index) {
  if (retry_index == 0 || !(policy.backoff_base_msec > 0)) return 0.0;
  double backoff = policy.backoff_base_msec;
  for (size_t i = 1; i < retry_index; ++i) {
    backoff *= 2.0;
    if (backoff >= policy.backoff_cap_msec) break;
  }
  return std::min(backoff, policy.backoff_cap_msec);
}

}  // namespace nipo
