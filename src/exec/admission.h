#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file admission.h
/// Adaptive admission control for workload execution (DESIGN.md
/// "Open-loop service mode").
///
/// Fixed admission (`max_concurrent`) trades throughput against
/// interference blindly: too low wastes workers on friendly phases, too
/// high lets cache-thrashing queries co-run and blow up the latency
/// tail. The AdmissionController closes the loop: it watches per-quantum
/// *simulated* feedback — shared-L3 evictions suffered (interference
/// pressure), quantum slowdown relative to the query's own best (latency
/// inflation), and the in-flight queries' live shared-L3 occupancy
/// (crowding) — and nudges the effective concurrency limit up or down,
/// AIMD-style one step per decision, between 1 and the configured
/// `max_concurrent`. The floor of one is the progress guarantee:
/// whatever the feedback says, one query is always admitted.
///
/// The occupancy signal is the *predictive* half of the loop. Admission
/// cannot preempt: once two cache-thrashing queries are co-admitted, the
/// interference damage runs to completion whatever the limit does next.
/// Eviction and slowdown feedback therefore arrive too late to save the
/// queries that triggered them; what they buy is stepping the limit
/// down for the future. The occupancy guard closes the remaining gap:
/// while the in-flight set already claims most of the shared L3, raising
/// the limit is what *creates* the next collision, so raises are blocked
/// (and crowding steps the limit down) before a second large-footprint
/// query can slip in. Benches pair this with `start_limit = 1`
/// (slow-start) so the very first admission window cannot co-schedule
/// two thrashers either.
///
/// The controller is a pure function of the quantum sequence fed to it
/// (no wall clock, no randomness), so a live contended run and its
/// SimulateWorkloadSchedule replay — fed the same recorded quantum
/// traces — take bit-identical decisions and produce bit-identical
/// schedules. The differential tests in tests/service_mode_test.cc pin
/// this down.

namespace nipo {

/// \brief Thresholds and cadence of the adaptive admission loop. The
/// defaults are sized for the simulated prototype machine; benches sweep
/// them only through `max_concurrent`.
struct AdmissionConfig {
  /// Quanta per decision epoch: feedback is averaged over this many
  /// quanta before the limit may move (smooths single-quantum noise).
  size_t epoch_quanta = 8;
  /// Epochs to hold the limit after a change before the next decision
  /// (hysteresis; lets the new concurrency level show up in feedback).
  size_t hold_epochs = 1;
  /// Raise-pressure threshold: epoch-mean shared-L3 evictions suffered
  /// per quantum, as a fraction of L3 capacity lines. Above it the
  /// limit steps down.
  double high_eviction_frac = 0.25;
  /// All-clear threshold: below it (and with queries waiting) the limit
  /// steps back up.
  double low_eviction_frac = 0.05;
  /// Latency-inflation threshold: epoch-mean quantum duration relative
  /// to the same query's best-observed quantum. Above it the limit
  /// steps down even without eviction pressure (covers contention-free
  /// slowdown sources).
  double high_slowdown = 1.6;
  /// Crowding threshold: epoch-max live shared-L3 occupancy (lines owned
  /// by in-flight queries) as a fraction of capacity. At or above it,
  /// raises are blocked and the limit steps down — the cache is already
  /// claimed, so added concurrency would only create the next collision.
  /// >= 1 (the default) disables the signal; so does a zero capacity.
  double high_occupancy_frac = 1.0;
  /// Initial effective limit, clamped to [1, max_limit]; 0 (the
  /// default) starts at max_limit. Benches use 1 (slow-start) so the
  /// first admission window is as protected as steady state.
  size_t start_limit = 0;
};

/// \brief AIMD-style concurrency-limit controller over per-quantum
/// simulated feedback. One instance per workload run; OnQuantum is fed
/// every quantum completion in simulated-event order.
class AdmissionController {
 public:
  /// \param num_queries    workload size (per-query best-quantum state)
  /// \param max_limit      ceiling of the effective limit (the workload's
  ///                       `max_concurrent`); the initial limit
  /// \param l3_capacity_lines  shared-L3 geometry behind the eviction
  ///                       fraction; 0 (contention off) disables the
  ///                       eviction signal, leaving slowdown only
  AdmissionController(size_t num_queries, size_t max_limit,
                      uint64_t l3_capacity_lines,
                      const AdmissionConfig& config = AdmissionConfig{});

  /// Current effective concurrency limit, in [1, max_limit]: the floor
  /// of one is the progress guarantee.
  size_t limit() const { return limit_; }

  /// Feeds one completed quantum: query index, simulated duration,
  /// shared-L3 evictions suffered inside the quantum window, the live
  /// shared-L3 occupancy (lines owned by still-in-flight queries) after
  /// the quantum, and the scheduler occupancy at the completion event
  /// (queries in flight, queries waiting for admission or
  /// arrival-released and queued).
  void OnQuantum(size_t query, double duration_msec,
                 uint64_t evictions_suffered, uint64_t occupancy_lines,
                 size_t in_flight, size_t waiting);

  size_t decreases() const { return decreases_; }
  size_t increases() const { return increases_; }
  /// Smallest limit the controller ever reached (>= 1: the progress
  /// guarantee, asserted by the overload tests).
  size_t min_limit_seen() const { return min_limit_seen_; }

 private:
  void Decide();

  AdmissionConfig config_;
  size_t max_limit_ = 1;
  size_t limit_ = 1;
  uint64_t capacity_lines_ = 0;

  /// Per-query best (smallest positive) quantum duration seen so far;
  /// the slowdown baseline.
  std::vector<double> best_quantum_msec_;

  // Decision-epoch accumulators.
  size_t epoch_count_ = 0;
  double epoch_evictions_ = 0;
  double epoch_slowdown_ = 0;
  uint64_t epoch_peak_occupancy_ = 0;
  bool epoch_demand_ = false;
  size_t hold_ = 0;

  size_t decreases_ = 0;
  size_t increases_ = 0;
  size_t min_limit_seen_ = 1;
};

/// \brief Deadline-aware admission shedding (DESIGN.md Section 9): the
/// failure-aware half of the admission layer. A query that has already
/// waited so long in the queue that it cannot finish before its deadline
/// even if admitted *now* will only burn worker time and die at a vector
/// boundary anyway; shedding rejects it at admission instead
/// (QueryOutcome::kShed), preferring early rejection over a late
/// deadline miss and leaving the capacity to queries that can still make
/// their deadlines.
///
/// The service-time estimate calibrates online: every query that
/// completes OK contributes its scheduled machine time against its cost-
/// model work score (WorkloadTask::estimated_work, priced by
/// FillScheduleEstimates), giving a live msec-per-work rate; queries
/// without work scores fall back to the mean observed service time. The
/// predicted completion also scales with the pool crowding
/// ((in_flight + 1) / num_threads) since admitted queries time-share the
/// workers. No completions yet means no estimate — the shedder never
/// sheds blind. Like the AdmissionController, it is a pure function of
/// the sequence fed to it, so live runs and trace replays shed
/// identically.
class DeadlineShedder {
 public:
  /// Feeds one OK completion: its total scheduled quantum time and its
  /// work score (0 when the workload carries no estimates).
  void OnQueryDone(double service_msec, double work);

  /// True once at least one completion calibrated the estimate.
  bool calibrated() const { return queries_done_ > 0; }

  /// Predicted solo service time of a query with work score `work`.
  double EstimateServiceMsec(double work) const;

  /// True iff a query picked for admission at `now` should be shed:
  /// its predicted completion, crowding-scaled, lands past
  /// arrival + deadline. `deadline_msec <= 0` means no deadline (never
  /// shed); an uncalibrated shedder never sheds.
  bool ShouldShed(double now, double arrival_msec, double deadline_msec,
                  double work, size_t in_flight, size_t num_threads) const;

 private:
  double total_msec_ = 0;
  double total_work_ = 0;
  size_t queries_done_ = 0;
};

}  // namespace nipo
