#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

/// \file branch_predictor.h
/// Simulated branch prediction unit.
///
/// The paper (Section 3.2) models the CPU's conditional-branch predictor as
/// an N-state saturating counter, i.e. a birth-death Markov chain: each
/// observed not-taken outcome moves the state one step toward the
/// "strongly not taken" end, each taken outcome one step toward "strongly
/// taken" (Figure 5). States in the lower half predict NOT TAKEN, states in
/// the upper half predict TAKEN. The paper finds 6 states to fit Intel
/// micro-architectures (Sandy Bridge through Broadwell) and 4 states to fit
/// AMD, and also evaluates asymmetric variants with one extra taken (+1T)
/// or not-taken (+1NT) state (Figure 3).
///
/// This module is the *hardware* side of that story: it simulates such a
/// predictor per static branch site, which is exactly the mechanism whose
/// stationary behaviour the analytic model in cost/markov.h predicts. The
/// simulated PMU (pmu.h) uses it to produce the taken/not-taken
/// misprediction counters the paper samples from silicon.

namespace nipo {

/// \brief Geometry of an N-state saturating-counter predictor.
struct PredictorConfig {
  /// Total number of states, >= 2.
  int num_states = 6;
  /// Number of states (counting from the "strongly not taken" end) that
  /// predict NOT TAKEN; the remaining states predict TAKEN.
  int not_taken_states = 3;

  /// Symmetric N-state predictor (N even).
  static PredictorConfig Symmetric(int n) {
    return PredictorConfig{n, n / 2};
  }
  /// Odd-state predictor with the extra state on the taken side (+1T):
  /// e.g. 5 states = 2 not-taken + 3 taken.
  static PredictorConfig PlusOneTaken(int n) {
    return PredictorConfig{n, (n - 1) / 2};
  }
  /// Odd-state predictor with the extra state on the not-taken side (+1NT):
  /// e.g. 5 states = 3 not-taken + 2 taken.
  static PredictorConfig PlusOneNotTaken(int n) {
    return PredictorConfig{n, (n + 1) / 2};
  }

  bool Valid() const {
    return num_states >= 2 && not_taken_states >= 1 &&
           not_taken_states < num_states;
  }
};

/// Outcome classification of one predicted branch.
struct BranchOutcome {
  bool taken = false;        ///< actual direction
  bool mispredicted = false; ///< prediction != actual
};

/// \brief Packs 8 pass flags (each byte 0 or 1) into one byte, flag j in
/// bit j: one load and one multiply. The multiplier places byte j's low
/// bit at bit 56 + j; no two partial products share a bit, so nothing
/// carries into the top byte.
inline uint8_t PackPassFlags(const uint8_t* pass_flags) {
  static_assert(std::endian::native == std::endian::little,
                "PackPassFlags reads flag j from byte j of a word");
  uint64_t word;
  std::memcpy(&word, pass_flags, sizeof(word));
  NIPO_DCHECK((word & ~uint64_t{0x0101010101010101}) == 0);
  return static_cast<uint8_t>((word * uint64_t{0x0102040810204080}) >> 56);
}

/// \brief The predictor's response to 8 consecutive outcomes at one site,
/// precomputed for every (state, packed pass flags) pair of one
/// PredictorConfig (DESIGN.md Section 4, "Predicate branch streams").
///
/// Pass flag j set means outcome j was NOT taken (the tuple qualified).
/// Each entry is the result of 8 Step() calls, so a lookup is
/// counter-identical to observing the outcomes one by one.
class BranchStepTable {
 public:
  struct Entry {
    uint8_t next_state = 0;
    uint8_t taken_mp = 0;      ///< taken outcomes predicted not taken
    uint8_t not_taken_mp = 0;  ///< not-taken outcomes predicted taken
    uint8_t unused = 0;  ///< pads an entry to 4 bytes
  };

  /// Largest predictor the tables cover; bigger ones book run by run.
  static constexpr int kMaxStates = 16;

  /// The process-wide table for `config`, built on first use (thread-safe)
  /// and shared by every machine with that predictor; nullptr when the
  /// config has more than kMaxStates states.
  static const BranchStepTable* For(const PredictorConfig& config);

  explicit BranchStepTable(const PredictorConfig& config);

  const Entry& Lookup(int state, uint8_t pass_bits) const {
    return entries_[static_cast<size_t>(state) * 256 + pass_bits];
  }

 private:
  std::vector<Entry> entries_;  ///< num_states x 256
};

/// Branch counts of a batch of predicate outcomes at one site.
struct PassFlagCounts {
  uint64_t not_taken = 0;     ///< qualifying tuples
  uint64_t taken_mp = 0;      ///< taken outcomes predicted not taken
  uint64_t not_taken_mp = 0;  ///< not-taken outcomes predicted taken
};

/// \brief Saturating-counter predictor state for a set of static branch
/// sites (a simplified branch history table without aliasing).
///
/// Site ids are small dense integers assigned by the executor, one per
/// conditional branch in the generated scan loop (one per predicate
/// position plus one loop back-edge).
class BranchPredictor {
 public:
  explicit BranchPredictor(PredictorConfig config = PredictorConfig{})
      : config_(config) {
    NIPO_CHECK(config_.Valid());
    step_table_ = BranchStepTable::For(config_);
  }

  const PredictorConfig& config() const { return config_; }

  /// Ensures state exists for sites [0, num_sites). New sites start in the
  /// weakest taken-predicting state (CPUs commonly initialize toward
  /// "weakly taken"; the choice only affects a few warm-up branches).
  void EnsureSites(size_t num_sites) {
    states_.resize(num_sites, config_.not_taken_states);
  }

  size_t num_sites() const { return states_.size(); }

  /// Predicts the branch at `site`, observes the actual direction,
  /// updates the saturating counter, and reports whether the prediction
  /// was wrong.
  BranchOutcome Observe(size_t site, bool taken) {
    NIPO_DCHECK(site < states_.size());
    return BranchOutcome{taken, Step(config_, states_[site], taken)};
  }

  /// The saturating-counter transition behind Observe() and the step
  /// table: returns whether `state` mispredicts `taken`, then moves it one
  /// step toward `taken`.
  static bool Step(const PredictorConfig& config, int& state, bool taken) {
    const bool mispredicted = (state >= config.not_taken_states) != taken;
    if (taken) {
      if (state < config.num_states - 1) ++state;
    } else {
      if (state > 0) --state;
    }
    return mispredicted;
  }

  /// Observes `n` consecutive branches at `site` that all went the same
  /// direction, in closed form, and returns how many of them were
  /// mispredicted. Equivalent to (and tested against) calling Observe()
  /// `n` times: a saturating counter walks monotonically toward the
  /// observed direction, so the mispredicted observations are exactly the
  /// leading ones spent crossing the predict-not-taken / predict-taken
  /// boundary, and the final state saturates after at most `num_states`
  /// steps. This is the fast path behind Pmu::OnBranchRun (DESIGN.md
  /// "Batched simulation").
  uint64_t ObserveRun(size_t site, bool taken, uint64_t n) {
    NIPO_DCHECK(site < states_.size());
    if (n == 0) return 0;
    int& state = states_[site];
    const int nts = config_.not_taken_states;
    uint64_t mispredicted;
    if (taken) {
      mispredicted =
          state < nts ? std::min<uint64_t>(n, static_cast<uint64_t>(nts - state))
                      : 0;
      const uint64_t headroom =
          static_cast<uint64_t>(config_.num_states - 1 - state);
      state = n >= headroom ? config_.num_states - 1
                            : state + static_cast<int>(n);
    } else {
      mispredicted =
          state >= nts
              ? std::min<uint64_t>(n, static_cast<uint64_t>(state - nts + 1))
              : 0;
      state = n >= static_cast<uint64_t>(state) ? 0
                                                : state - static_cast<int>(n);
    }
    return mispredicted;
  }

  /// The 8-outcome step table of this predictor's config, or nullptr if
  /// the config is too large for one (BranchStepTable::kMaxStates).
  const BranchStepTable* step_table() const { return step_table_; }

  /// Observes `8 * groups` outcomes at `site`, given as 0/1 pass flags in
  /// outcome order (flag 1 = not taken), one table lookup per 8 flags.
  /// Equivalent to calling Observe() once per flag. Requires
  /// step_table() != nullptr.
  PassFlagCounts ObservePassFlags(size_t site, const uint8_t* pass_flags,
                                  size_t groups) {
    NIPO_DCHECK(step_table_ != nullptr && site < states_.size());
    PassFlagCounts counts;
    int state = states_[site];
    for (size_t g = 0; g < groups; ++g) {
      const uint8_t bits = PackPassFlags(pass_flags + 8 * g);
      const BranchStepTable::Entry& e = step_table_->Lookup(state, bits);
      state = e.next_state;
      counts.taken_mp += e.taken_mp;
      counts.not_taken_mp += e.not_taken_mp;
      counts.not_taken += static_cast<uint64_t>(std::popcount(bits));
    }
    states_[site] = state;
    return counts;
  }

  /// Current prediction at `site` without updating.
  bool PredictsTaken(size_t site) const {
    NIPO_DCHECK(site < states_.size());
    return states_[site] >= config_.not_taken_states;
  }

  /// Raw state, exposed for tests.
  int state(size_t site) const { return states_[site]; }

 private:
  PredictorConfig config_;
  const BranchStepTable* step_table_ = nullptr;
  std::vector<int> states_;
};

}  // namespace nipo
