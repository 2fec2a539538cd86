#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file faults.h
/// Deterministic fault injection for workload execution (DESIGN.md
/// Section 9 "Fault-tolerant service").
///
/// A production service sees slow workers and transient failures; the
/// FaultPlan injects both into the workload driver's simulated schedule,
/// reproducibly. Every fault event is a *pure function* of (plan seed,
/// query index, attempt, quantum index) — a stateless splitmix64 hash
/// rather than a shared PRNG stream — so the injected schedule does not
/// depend on how quanta interleave across queries. Two consequences the tests pin down
/// (tests/service_faults_test.cc):
///
///  - Reruns, simulated worker counts and `max_concurrent` settings all
///    draw the identical per-query fault sequence: outcomes, retry
///    counts and backoff waits are schedule-independent.
///  - The SimulateWorkloadSchedule replay does not need to redraw
///    anything: the recorded QuantumTrace fates already encode where
///    each attempt ended, and the event loop reconstructs retry timing
///    from them bit-identically.
///
/// Fault semantics at quantum granularity:
///  - *Transient fault*: the quantum executes (its simulated time is
///    spent), then the attempt fails with a retryable error. The driver
///    restarts the query from scratch on a fresh machine after a capped
///    exponential backoff in simulated time (RetryPolicy), up to
///    `max_attempts` total attempts; exhaustion yields
///    QueryOutcome::kFailed.
///  - *Stall*: a slow worker — the quantum's simulated duration is
///    multiplied by `stall_factor` in the schedule. Machine counters are
///    untouched (the work itself did not change; the worker was slow),
///    so stalls inflate latency without perturbing per-query counters.
///
/// Hard (non-retryable) failures are not injected: they come from a
/// runtime data error the query's executor latches, such as an
/// out-of-range foreign key.

namespace nipo {

/// \brief Terminal state of one workload query (docs/COUNTERS.md). The
/// numeric values are stable: benchmarks fingerprint them.
enum class QueryOutcome : int {
  kOk = 0,                ///< ran to completion
  kDeadlineExceeded = 1,  ///< killed at a vector boundary past its deadline
  kFailed = 3,            ///< hard fault, or retryable faults exhausted retry
  kShed = 4,              ///< rejected at admission (deadline-aware shedding)
};

std::string_view QueryOutcomeToString(QueryOutcome outcome);

/// \brief Seeded fault-injection plan of a workload run. Default: no
/// faults (enabled() == false), in which case the driver's behaviour and
/// schedule are byte-identical to a plan-free build.
struct FaultPlan {
  /// Seed of the per-event hash; same seed, same faults — on any host,
  /// any thread count, any admission limit.
  uint64_t seed = 42;
  /// Per-quantum probability of a transient (retryable) failure.
  double transient_fault_rate = 0;
  /// Per-quantum probability of a worker stall.
  double stall_rate = 0;
  /// Duration multiplier of a stalled quantum (> 1).
  double stall_factor = 4.0;

  bool enabled() const { return transient_fault_rate > 0 || stall_rate > 0; }
};

/// \brief Retry policy for transient (retryable) failures, in simulated
/// time. The default (max_attempts = 1) disables retry: the first
/// transient fault fails the query.
struct RetryPolicy {
  /// Total attempts per query (>= 1); 1 = no retry.
  size_t max_attempts = 1;
  /// Backoff before retry r (r = 1 after the first failure) is
  /// min(backoff_base_msec * 2^(r-1), backoff_cap_msec) simulated msec.
  double backoff_base_msec = 1.0;
  double backoff_cap_msec = 64.0;
};

/// \brief The fault events drawn for one (query, attempt, quantum).
struct FaultDraw {
  bool transient = false;  ///< retryable failure at the quantum's end
  bool stall = false;      ///< duration multiplied by plan.stall_factor
};

/// \brief Draws the fault events of one quantum: a pure, stateless
/// function of the plan seed and the (query, attempt, quantum)
/// coordinates, independent of scheduling order.
FaultDraw DrawFault(const FaultPlan& plan, size_t query, size_t attempt,
                    size_t quantum);

/// \brief Simulated backoff wait before retry `retry_index` (1-based:
/// the wait after the first failed attempt is index 1). Capped
/// exponential: min(base * 2^(retry_index-1), cap), never negative.
double RetryBackoffMsec(const RetryPolicy& policy, size_t retry_index);

}  // namespace nipo
