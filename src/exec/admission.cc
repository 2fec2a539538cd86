#include "exec/admission.h"

#include <algorithm>

#include "common/logging.h"

/// \file admission.cc
/// Adaptive admission control: epoch-averaged AIMD over per-quantum
/// simulated feedback. Everything here is integer/double arithmetic on
/// the fed sequence — no clocks, no randomness — so identical quantum
/// traces reproduce identical decision sequences bit-for-bit.

namespace nipo {

namespace {

/// Hard floor of the effective limit (the progress guarantee).
constexpr size_t kMinLimit = 1;

// The controller's tuning for the simulated prototype machine. Decide
// every 12 quanta with no hysteresis hold: a freshly admitted thrasher
// needs ~10 quanta to build its resident footprint, so a shorter epoch
// would take its first raise decision before the crowding is visible and
// co-admit the partner thrasher (irrevocably: admission cannot preempt).
// Treat a few-percent-of-L3 eviction epoch as pressure (a co-running
// thrasher pair is far above this, a scan stretch far below); and — the
// load-bearing signal — refuse to raise (and step down) while the
// in-flight set owns 60% or more of the shared L3. A resident thrasher
// dimension is ~83%, a stretch of small scans well under half, so the
// guard separates "thrasher in flight: keep it solo" from "small scans
// in flight: co-run freely". Starting at the floor (slow-start) extends
// that protection to the very first admission, before any feedback
// exists.

/// Quanta per decision epoch: feedback is averaged over this many quanta
/// before the limit may move (smooths single-quantum noise).
constexpr size_t kEpochQuanta = 12;
/// Pressure threshold: epoch-mean shared-L3 evictions suffered per
/// quantum, as a fraction of L3 capacity lines. Above it the limit steps
/// down.
constexpr double kHighEvictionFrac = 0.01;
/// All-clear threshold: below it (and with queries waiting) the limit
/// steps back up.
constexpr double kLowEvictionFrac = 0.003;
/// Latency-inflation threshold: epoch-mean quantum duration relative to
/// the same query's best-observed quantum. Above it the limit steps down
/// even without eviction pressure.
constexpr double kHighSlowdown = 1.5;
/// Crowding threshold: epoch-max live shared-L3 occupancy (lines owned by
/// in-flight queries) as a fraction of capacity. At or above it, raises
/// are blocked and the limit steps down.
constexpr double kHighOccupancyFrac = 0.6;

}  // namespace

AdmissionController::AdmissionController(size_t num_queries, size_t max_limit,
                                         uint64_t l3_capacity_lines)
    : max_limit_(std::max<size_t>(1, max_limit)),
      capacity_lines_(l3_capacity_lines),
      best_quantum_msec_(num_queries, 0.0) {}

void AdmissionController::OnQuantum(size_t query, double duration_msec,
                                    uint64_t evictions_suffered,
                                    uint64_t occupancy_lines, size_t in_flight,
                                    size_t waiting) {
  NIPO_CHECK(query < best_quantum_msec_.size());
  double& best = best_quantum_msec_[query];
  if (duration_msec > 0 && (best == 0 || duration_msec < best)) {
    best = duration_msec;
  }
  const double slowdown = best > 0 ? duration_msec / best : 1.0;

  epoch_evictions_ += static_cast<double>(evictions_suffered);
  epoch_slowdown_ += slowdown;
  epoch_peak_occupancy_ = std::max(epoch_peak_occupancy_, occupancy_lines);
  // Demand: raising the limit only helps when queries are waiting *and*
  // the limit is what holds them back (not a policy deferral below it).
  epoch_demand_ = epoch_demand_ || (waiting > 0 && in_flight >= limit_);
  if (++epoch_count_ >= kEpochQuanta) Decide();
}

void AdmissionController::Decide() {
  const double count = static_cast<double>(epoch_count_);
  const double mean_eviction_frac =
      capacity_lines_ > 0
          ? epoch_evictions_ / (count * static_cast<double>(capacity_lines_))
          : 0.0;
  const double mean_slowdown = epoch_slowdown_ / count;
  const double peak_occupancy_frac =
      capacity_lines_ > 0 ? static_cast<double>(epoch_peak_occupancy_) /
                                static_cast<double>(capacity_lines_)
                          : 0.0;
  const bool demand = epoch_demand_;
  epoch_count_ = 0;
  epoch_evictions_ = 0;
  epoch_slowdown_ = 0;
  epoch_peak_occupancy_ = 0;
  epoch_demand_ = false;

  // Crowding: the in-flight set already claims most of the shared L3, so
  // admitting more queries is what would create the next collision. It
  // both blocks raises and (below) steps the limit down.
  const bool crowd = peak_occupancy_frac >= kHighOccupancyFrac;
  const bool pressure = mean_eviction_frac > kHighEvictionFrac ||
                        mean_slowdown > kHighSlowdown;
  const bool clear = mean_eviction_frac < kLowEvictionFrac &&
                     mean_slowdown <= kHighSlowdown && !crowd;
  if ((pressure || crowd) && limit_ > kMinLimit) {
    --limit_;  // multiplicative-ish decrease is overkill at these scales
    ++decreases_;
  } else if (clear && demand && limit_ < max_limit_) {
    ++limit_;
    ++increases_;
  }
  min_limit_seen_ = std::min(min_limit_seen_, limit_);
  NIPO_CHECK(limit_ >= 1);  // the progress guarantee, unconditionally
}

void DeadlineShedder::OnQueryDone(double service_msec, double work) {
  total_msec_ += service_msec;
  total_work_ += work;
  ++queries_done_;
}

double DeadlineShedder::EstimateServiceMsec(double work) const {
  if (queries_done_ == 0) return 0.0;
  if (work > 0 && total_work_ > 0) {
    return work * (total_msec_ / total_work_);
  }
  // No work scores to scale by: the mean observed service time.
  return total_msec_ / static_cast<double>(queries_done_);
}

bool DeadlineShedder::ShouldShed(double now, double arrival_msec,
                                 double deadline_msec, double work,
                                 size_t in_flight,
                                 size_t num_threads) const {
  if (!(deadline_msec > 0) || queries_done_ == 0) return false;
  const double crowding =
      num_threads > 0
          ? std::max(1.0, static_cast<double>(in_flight + 1) /
                              static_cast<double>(num_threads))
          : 1.0;
  const double predicted_finish =
      now + EstimateServiceMsec(work) * crowding;
  return predicted_finish > arrival_msec + deadline_msec;
}

}  // namespace nipo
