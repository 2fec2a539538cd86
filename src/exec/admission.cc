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

}  // namespace

AdmissionController::AdmissionController(size_t num_queries, size_t max_limit,
                                         uint64_t l3_capacity_lines,
                                         const AdmissionConfig& config)
    : config_(config),
      max_limit_(std::max<size_t>(1, max_limit)),
      capacity_lines_(l3_capacity_lines),
      best_quantum_msec_(num_queries, 0.0) {
  NIPO_CHECK(config_.epoch_quanta >= 1);
  limit_ = config_.start_limit == 0
               ? max_limit_
               : std::clamp(config_.start_limit, kMinLimit, max_limit_);
  min_limit_seen_ = limit_;
}

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
  if (++epoch_count_ >= config_.epoch_quanta) Decide();
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

  if (hold_ > 0) {
    --hold_;
    return;
  }
  // Crowding: the in-flight set already claims most of the shared L3, so
  // admitting more queries is what would create the next collision. It
  // both blocks raises and (below) steps the limit down.
  const bool crowd = peak_occupancy_frac >= config_.high_occupancy_frac;
  const bool pressure = mean_eviction_frac > config_.high_eviction_frac ||
                        mean_slowdown > config_.high_slowdown;
  const bool clear = mean_eviction_frac < config_.low_eviction_frac &&
                     mean_slowdown <= config_.high_slowdown && !crowd;
  if ((pressure || crowd) && limit_ > kMinLimit) {
    --limit_;  // multiplicative-ish decrease is overkill at these scales
    ++decreases_;
    hold_ = config_.hold_epochs;
  } else if (clear && demand && limit_ < max_limit_) {
    ++limit_;
    ++increases_;
    hold_ = config_.hold_epochs;
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
