#include "optimizer/progressive.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "cost/markov.h"
#include "storage/encoding.h"

/// \file progressive.cc
/// The progressive optimization driver loop: per-interval counter
/// sampling, selectivity learning, pricing evaluation orders in predicted
/// simulated cycles and switching to the cheapest one in flight when it
/// beats the current order by more than the sample's noise, recorded as a
/// PEO trace. The parallel coordinator steps the same optimizer over
/// merged morsel windows and broadcasts its plans to all workers
/// (DESIGN.md "Parallel execution").

namespace nipo {

namespace {

/// Regression factor on cycles-per-input-tuple that triggers a revert.
/// Per-vector costs drift naturally as the scan moves through the data
/// (especially on clustered layouts), so the threshold leaves room for
/// that drift; genuinely bad orders regress far beyond it.
constexpr double kRevertThreshold = 1.15;

bool PipelineHasProbe(const PipelineExecutor& exec) {
  for (size_t i = 0; i < exec.num_operators(); ++i) {
    if (exec.OperatorAt(i).kind == OperatorSpec::Kind::kFkProbe) {
      return true;
    }
  }
  return false;
}

ScanShape ShapeForOrder(const PipelineExecutor& exec, double num_tuples) {
  ScanShape shape;
  shape.num_tuples = num_tuples;
  shape.predictor = exec.pmu()->config().predictor;
  // The shape describes the columns the executor actually scans: their
  // value widths, and for encoded columns the bytes streamed per value (a
  // packed column streams fewer than its width).
  for (size_t pos = 0; pos < exec.num_operators(); ++pos) {
    // A probe behaves like a predicate on its FK column for branch
    // purposes; its dimension-side cache traffic is handled separately.
    const ColumnScanStats stats = exec.ColumnStatsAt(pos);
    shape.predicate_widths.push_back(stats.value_width);
    shape.predicate_packed_bytes.push_back(
        stats.encoded ? stats.scan_bytes_per_value : 0.0);
  }
  for (size_t i = 0; i < exec.num_payloads(); ++i) {
    const ColumnScanStats stats = exec.PayloadStatsAt(i);
    shape.payload_widths.push_back(stats.value_width);
    shape.payload_packed_bytes.push_back(
        stats.encoded ? stats.scan_bytes_per_value : 0.0);
  }
  return shape;
}

/// Runs the Section 4.2 learning algorithm on `sample` (one vector, or a
/// SampleMerger-merged window of same-order morsels) against the current
/// evaluation order of `exec`, whose shape is `shape`. Errors for
/// inconsistent samples.
Result<SelectivityEstimate> EstimateOrderSelectivities(
    const PipelineExecutor& exec, const ScanShape& shape,
    const VectorSample& sample) {
  CounterSample cs;
  cs.tuples_in = shape.num_tuples;
  cs.tuples_out = static_cast<double>(sample.result.qualifying_tuples);
  cs.counters.branches_not_taken =
      static_cast<double>(sample.counters.branches_not_taken);
  cs.counters.taken_mp =
      static_cast<double>(sample.counters.taken_mispredictions);
  cs.counters.not_taken_mp =
      static_cast<double>(sample.counters.not_taken_mispredictions);
  cs.counters.l3_accesses = static_cast<double>(sample.counters.l3_accesses);

  EstimatorConfig est;
  if (PipelineHasProbe(exec)) {
    // The scan cache model does not cover dimension-side traffic; rely on
    // the (cache-independent) branch counters for selectivities.
    est.counter_set = CounterSet::kBranchesOnly;
  }
  return EstimateSelectivities(shape, cs, est);
}

/// Relative margin a cheaper order must clear, times the square root of
/// the tuples the deciding sample saw. A selectivity measured over N
/// tuples has a binomial standard error of at most 1/(2*sqrt(N)), so the
/// noise in a predicted cost shrinks as 1/sqrt(N), and so does the
/// margin: 8.8% at a 1,024-row vector, 4.4% at a 4,096-row scan vector,
/// 0.7% at a 163,840-tuple sharded window. The constant is measured.
/// Without a margin, samples near a tie switch on noise
/// (ProgressiveTest.NearOptimalStartStaysPut fails). fig11_common_case's
/// progressive average / worst order under `setarch -R` read 1.07 / 1.27
/// simulated ms at 1.8, 1.06 / 1.26 at 2.5 to 3.3, 1.07 / 1.26 at 3.6 and
/// 1.09 / 1.26 at 7.2. At 3.3 and up, the progressive medium scan of
/// workload_contention --quick (1,024-row vectors) keeps its start order,
/// because its predicted gain of 9-10% (14% in fact) stays under the
/// margin, and footprint-aware admission no longer beats FIFO there
/// (EXPERIMENTS.md "Figure 11: plans priced in predicted cycles").
constexpr double kMarginTimesSqrtTuples = 2.8;
/// Fewest tuples the estimate must let pass an operator for the pricing
/// to take its selectivity as estimated. Where a sample's tuples all
/// failed, the estimator places the failures only to within a few
/// tuples: it has let up to 6 of 13,900 tuples pass a shipdate bound that
/// passed none, then estimated 0 for the operator behind it from those 6,
/// and priced as estimated that 0 hoists an operator no tuple reached
/// (fig11's worst order took 1.46 simulated ms that way, 1.26 with this
/// floor; 1, 4, 8, 16 and 32 measured, 8 is the smallest that also fixes
/// `scale_threads`' 1-thread progressive run).
constexpr double kMinPassedTuples = 8.0;
/// Operator count up to which the subset dynamic program runs (2^n costs
/// to store, n * 2^(n-1) to evaluate). Longer pipelines keep their order.
constexpr size_t kMaxPricedOperators = 16;

/// What one operator costs per evaluation, apart from its fact column's
/// cache misses, which depend on where it runs.
struct OperatorPrice {
  double selectivity = 1.0;  ///< as priced (see kMinPassedTuples)
  /// Cycles per evaluation: instructions, loads at L1 hit cost, the
  /// branch, its expected mispredictions, and a probe's sampled misses.
  double cycles_per_evaluation = 0.0;
  /// Zone-map discount: a predicate whose zone maps refute a fraction f
  /// of the rows costs max(0.05, 1 - f) of its price, so reorders do not
  /// fight the skipping.
  double discount = 1.0;
  ScanColumnSpec column;  ///< fact-side column, access fraction unset
};

/// Prices evaluation orders in simulated cycles per input tuple, from the
/// models the estimator fits: CycleModel prices, the Markov predictor
/// model's misprediction rate, the scan cache model for fact columns and
/// the sampled probe miss rate.
class OrderPricer {
 public:
  OrderPricer(const PipelineExecutor& exec, const ScanShape& shape,
              const VectorSample& sample,
              const std::vector<double>& selectivities)
      : cycles_(exec.pmu()->config().cycle_model),
        cache_(shape.cache),
        num_tuples_(shape.num_tuples) {
    const size_t n = exec.num_operators();
    NIPO_CHECK(selectivities.size() == n);
    // Sampled misses the fact-side scan does not explain are the probes'
    // (a cold streamed line misses about once per L3 access). They are
    // spread evenly over every probe evaluation of the sampled order.
    const double scan_misses = PredictScanL3Accesses(shape, selectivities);
    const double probe_misses = std::max(
        0.0, static_cast<double>(sample.counters.l3_misses) - scan_misses);
    // The first operator the estimate lets fewer than kMinPassedTuples
    // pass failed the sample: it is priced as passing none, and the ones
    // behind it, which no tuple reached, as passing all.
    std::vector<double> priced(n, 1.0);
    double probe_evaluations = 0.0;
    double reach = 1.0;
    bool failed = false;
    for (size_t pos = 0; pos < n; ++pos) {
      if (exec.OperatorAt(pos).kind == OperatorSpec::Kind::kFkProbe) {
        probe_evaluations += reach * num_tuples_;
      }
      const double s = std::clamp(selectivities[pos], 0.0, 1.0);
      if (!failed) {
        failed = reach * s * num_tuples_ < kMinPassedTuples;
        priced[pos] = failed ? 0.0 : s;
      }
      reach *= s;
    }
    const double misses_per_probe =
        probe_evaluations > 0.0 ? probe_misses / probe_evaluations : 0.0;

    const double cpi = cycles_.cycles_per_instruction;
    for (size_t pos = 0; pos < n; ++pos) {
      const OperatorSpec& op = exec.OperatorAt(pos);
      OperatorPrice price;
      price.selectivity = priced[pos];
      price.column.value_width = shape.predicate_widths[pos];
      price.column.packed_bytes_per_value = shape.predicate_packed_bytes[pos];
      double instructions = LoopCostModel::kCompareInstructions;
      if (price.column.packed_bytes_per_value > 0.0) {
        // Decoding a value: the bit-unpack price, which also covers a
        // dictionary's index arithmetic and its cache-resident lookup.
        instructions += StorageCostModel::kPackDecodeInstructions;
      }
      double cycles = cycles_.l1_hit_cycles + cycles_.branch_cycles +
                      cycles_.misprediction_penalty *
                          ComputeBranchProbabilities(shape.predictor,
                                                     price.selectivity)
                              .mp;
      if (op.kind == OperatorSpec::Kind::kPredicate) {
        instructions += op.predicate.extra_instructions;
        const double prunable = exec.ZonePrunableFractionAt(pos);
        if (prunable > 0.0) price.discount = std::max(0.05, 1.0 - prunable);
      } else {
        // The dimension gather: address arithmetic, one load, and the
        // sampled misses per probe evaluation.
        instructions += LoopCostModel::kProbeAddressInstructions;
        cycles += cycles_.l1_hit_cycles +
                  misses_per_probe * cycles_.memory_cycles;
      }
      price.cycles_per_evaluation = cycles + cpi * instructions;
      ops_.push_back(price);
    }

    // Order-independent work: the loop and its back-edge for every tuple,
    // and the payload columns and the aggregate for qualifying ones.
    const double qualifying = reach;
    fixed_ = cpi * LoopCostModel::kLoopInstructions + cycles_.branch_cycles +
             qualifying * cpi * LoopCostModel::kAggregateInstructions;
    for (size_t i = 0; i < shape.payload_widths.size(); ++i) {
      fixed_ += ColumnCycles(ScanColumnSpec{shape.payload_widths[i], 1.0,
                                            shape.payload_packed_bytes[i]},
                             qualifying);
    }
  }

  /// Cycles per input tuple of the operator sampled at `pos` when a
  /// fraction `reach` of the tuples gets to it.
  double OperatorCycles(size_t pos, double reach) const {
    const OperatorPrice& op = ops_[pos];
    return op.discount * (reach * op.cycles_per_evaluation +
                          ColumnCycles(op.column, reach));
  }

  /// Cycles per input tuple of running the sampled operators in the
  /// position order `positions`.
  double OrderCycles(const std::vector<size_t>& positions) const {
    double total = fixed_;
    double reach = 1.0;
    for (size_t pos : positions) {
      total += OperatorCycles(pos, reach);
      reach *= ops_[pos].selectivity;
    }
    return total;
  }

  /// The cheapest order, in sampled positions, by dynamic programming
  /// over operator subsets: the operators before one determine the
  /// fraction of tuples reaching it, hence its cost, so the cheapest
  /// order of each subset extends the cheapest order of a smaller one.
  /// Ties put the higher sampled position first. They arise behind an
  /// operator priced as passing nothing, which makes every later one
  /// free; the operators sampled last saw the fewest tuples, so they move
  /// up right behind it, where the next samples observe them, and where
  /// they cost little if the estimate blamed the wrong operator.
  std::vector<size_t> CheapestOrder() const {
    const size_t n = ops_.size();
    const size_t subsets = size_t{1} << n;
    std::vector<double> best(subsets,
                             std::numeric_limits<double>::infinity());
    std::vector<double> reach(subsets, 1.0);
    std::vector<uint8_t> last(subsets, 0);
    best[0] = 0.0;
    for (size_t set = 1; set < subsets; ++set) {
      const size_t low = static_cast<size_t>(std::countr_zero(set));
      reach[set] = reach[set & (set - 1)] * ops_[low].selectivity;
      for (size_t pos = n; pos-- > 0;) {
        if (((set >> pos) & 1) == 0) continue;
        const size_t before = set & ~(size_t{1} << pos);
        const double cost = best[before] + OperatorCycles(pos, reach[before]);
        if (cost <= best[set]) {
          best[set] = cost;
          last[set] = static_cast<uint8_t>(pos);
        }
      }
    }
    std::vector<size_t> order(n);
    for (size_t set = subsets - 1, i = n; i-- > 0;) {
      order[i] = last[set];
      set &= ~(size_t{1} << last[set]);
    }
    return order;
  }

 private:
  /// Cycles per input tuple of the cache traffic of scanning `column` at
  /// access density `rho`: under the scan cache model a line reached from
  /// its predecessor was prefetched into L2, any other line is fetched
  /// from memory, and every further value on a line hits L1.
  double ColumnCycles(ScanColumnSpec column, double rho) const {
    column.access_fraction = rho;
    const ColumnCacheEstimate lines =
        EstimateColumnCache(cache_, num_tuples_, column);
    const double values = rho * num_tuples_;
    const double cycles =
        cycles_.l2_hit_cycles * (lines.lines_accessed - lines.random_lines) +
        cycles_.memory_cycles * lines.random_lines -
        cycles_.l1_hit_cycles * std::min(values, lines.lines_accessed);
    return cycles / num_tuples_;
  }

  CycleModel cycles_;
  ScanCacheModelConfig cache_;
  double num_tuples_;
  std::vector<OperatorPrice> ops_;
  double fixed_ = 0.0;
};

/// The coordinator's inner optimizer config: every merged window is one
/// decision point.
ProgressiveConfig PerWindowConfig(ProgressiveConfig config) {
  config.reopt_interval = 1;
  return config;
}

}  // namespace

ProgressiveOptimizer::ProgressiveOptimizer(PipelineExecutor* executor,
                                           ProgressiveConfig config)
    : executor_(executor), config_(config) {
  NIPO_CHECK(executor_ != nullptr);
  NIPO_CHECK(config_.reopt_interval > 0);
}

void ProgressiveOptimizer::Optimize(const VectorSample& sample) {
  ++report_.num_optimizations;
  if (sample.result.input_tuples == 0) return;

  // Tuples pruned by zone maps never reached per-tuple work, so the
  // sampled branch/cache counters describe only the surviving tuples --
  // the estimate and the pricing take that population, or they would
  // infer selectivities against work that never happened.
  const ScanShape shape = ShapeForOrder(
      *executor_, static_cast<double>(sample.result.input_tuples -
                                      sample.result.zone_skipped));
  auto estimate =
      EstimateOrderSelectivities(*executor_, shape, sample);
  if (!estimate.ok()) {
    return;  // inconsistent sample (e.g. empty vector); skip this cycle
  }
  report_.last_estimate = estimate.ValueOrDie().selectivities;

  const size_t n = executor_->num_operators();
  if (n < 2 || n > kMaxPricedOperators) return;
  const OrderPricer pricer(*executor_, shape, sample,
                           estimate.ValueOrDie().selectivities);
  std::vector<size_t> sampled(n);
  std::iota(sampled.begin(), sampled.end(), size_t{0});
  const std::vector<size_t> cheapest = pricer.CheapestOrder();
  const double old_cycles = pricer.OrderCycles(sampled);
  const double new_cycles = pricer.OrderCycles(cheapest);
  // Switch only when the predicted gain exceeds what sampling noise in
  // this sample's estimates could produce.
  const double margin = kMarginTimesSqrtTuples / std::sqrt(shape.num_tuples);
  if (!(new_cycles < old_cycles * (1.0 - margin))) return;
  const std::vector<size_t>& current = executor_->current_order();
  std::vector<size_t> proposed;
  proposed.reserve(n);
  for (size_t pos : cheapest) proposed.push_back(current[pos]);
  if (hysteresis_ttl_ > 0) {
    --hysteresis_ttl_;
    if (proposed == recently_reverted_) {
      return;  // hysteresis: validation just rejected this order
    }
  }
  PendingValidation pending;
  pending.old_order = executor_->current_order();
  pending.old_cycles_per_tuple = last_cycles_per_tuple_;
  NIPO_CHECK(executor_->Reorder(proposed).ok());
  PeoChange change;
  change.vector_index = sample.vector_index;
  change.old_order = pending.old_order;
  change.new_order = proposed;
  change.predicted_old_cycles = old_cycles;
  change.predicted_new_cycles = new_cycles;
  change.margin = margin;
  report_.changes.push_back(change);
  if (config_.validate_and_revert) {
    pending_ = std::move(pending);
  }
}

void ProgressiveOptimizer::HandleVector(const VectorSample& sample) {
  const double tuples = std::max<double>(
      1.0, static_cast<double>(sample.result.input_tuples));
  const double cycles_per_tuple =
      static_cast<double>(sample.counters.cycles) / tuples;

  if (pending_.has_value()) {
    // This vector ran under the new order: validate it.
    if (pending_->old_cycles_per_tuple > 0 &&
        cycles_per_tuple >
            pending_->old_cycles_per_tuple * kRevertThreshold) {
      recently_reverted_ = executor_->current_order();
      hysteresis_ttl_ = 1;  // skip this order for one optimization cycle
      NIPO_CHECK(executor_->Reorder(pending_->old_order).ok());
      report_.changes.back().reverted = true;
    } else {
      hysteresis_ttl_ = 0;  // a change survived; reopen the space
    }
    pending_.reset();
  } else if ((sample.vector_index + 1) % config_.reopt_interval == 0) {
    Optimize(sample);
  }
  last_cycles_per_tuple_ = cycles_per_tuple;
}

void ProgressiveOptimizer::Begin() {
  report_ = ProgressiveReport{};
  pending_.reset();
  last_cycles_per_tuple_ = 0;
  recently_reverted_.clear();
  hysteresis_ttl_ = 0;
}

ProgressiveReport ProgressiveOptimizer::Finish(DriveResult drive) {
  report_.drive = std::move(drive);
  report_.final_order = executor_->current_order();
  return std::move(report_);
}

ProgressiveReport ProgressiveOptimizer::Run() {
  Begin();
  VectorDriver driver(executor_, config_.vector_size);
  return Finish(
      driver.Run([this](const VectorSample& sample) { HandleVector(sample); }));
}

ParallelProgressiveCoordinator::ParallelProgressiveCoordinator(
    PipelineExecutor* control, ProgressiveConfig config)
    : control_(control),
      window_size_(config.reopt_interval),
      optimizer_(control, PerWindowConfig(config)) {
  NIPO_CHECK(window_size_ > 0);
  optimizer_.Begin();
}

std::optional<std::vector<size_t>> ParallelProgressiveCoordinator::OnMorsel(
    const MorselRecord& record) {
  if (record.order_version != version_) {
    // The morsel was in flight (under the previous plan) when a broadcast
    // happened; mixing its counters into the window would hand the
    // estimator a sample spanning two plans. Its result still counts in
    // the driver's merge -- only the decision window excludes it.
    ++stale_morsels_;
    return std::nullopt;
  }
  window_.Add(record.sample);
  if (window_.count() < window_size_) return std::nullopt;
  const std::vector<size_t> order = control_->current_order();
  optimizer_.OnVector(window_.merged());
  window_.Reset();
  if (control_->current_order() == order) return std::nullopt;
  ++version_;
  return control_->current_order();
}

void ParallelProgressiveCoordinator::FillReport(
    ParallelProgressiveReport* report) {
  ProgressiveReport decisions = optimizer_.Finish(DriveResult{});
  report->changes = std::move(decisions.changes);
  report->num_optimizations = decisions.num_optimizations;
  report->last_estimate = std::move(decisions.last_estimate);
  report->final_order = std::move(decisions.final_order);
  report->stale_morsels = stale_morsels_;
}

}  // namespace nipo
