#include "hw/branch_predictor.h"

#include <memory>
#include <mutex>

/// \file branch_predictor.cc
/// Construction and the process-wide registry of the 8-outcome step
/// tables behind BranchPredictor::ObservePassFlags.

namespace nipo {

BranchStepTable::BranchStepTable(const PredictorConfig& config)
    : entries_(static_cast<size_t>(config.num_states) * 256) {
  NIPO_CHECK(config.Valid() && config.num_states <= kMaxStates);
  for (int start = 0; start < config.num_states; ++start) {
    for (int bits = 0; bits < 256; ++bits) {
      Entry& e = entries_[static_cast<size_t>(start) * 256 +
                          static_cast<size_t>(bits)];
      int state = start;
      for (int j = 0; j < 8; ++j) {
        const bool taken = ((bits >> j) & 1) == 0;
        if (BranchPredictor::Step(config, state, taken)) {
          ++(taken ? e.taken_mp : e.not_taken_mp);
        }
      }
      e.next_state = static_cast<uint8_t>(state);
    }
  }
}

const BranchStepTable* BranchStepTable::For(const PredictorConfig& config) {
  if (!config.Valid() || config.num_states > kMaxStates) return nullptr;
  // One slot per (num_states, not_taken_states); a table is built the
  // first time any machine uses its config, so constructing a machine
  // costs one already-initialized check.
  static std::once_flag built[kMaxStates + 1][kMaxStates];
  static std::unique_ptr<const BranchStepTable> tables[kMaxStates + 1]
                                                     [kMaxStates];
  const int n = config.num_states;
  const int nts = config.not_taken_states;
  std::call_once(built[n][nts], [&] {
    tables[n][nts] = std::make_unique<const BranchStepTable>(config);
  });
  return tables[n][nts].get();
}

}  // namespace nipo
