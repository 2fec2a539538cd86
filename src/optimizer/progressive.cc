#include "optimizer/progressive.h"

#include <algorithm>
#include <cmath>
#include <numeric>

/// \file progressive.cc
/// The progressive optimization driver loop: per-interval counter
/// sampling, selectivity learning, operator re-ranking (cost-weighted
/// when probes or expensive predicates participate) and in-flight
/// evaluation-order changes, recorded as a PEO trace. The parallel
/// coordinator steps the same optimizer over merged morsel windows and
/// broadcasts its plans to all workers (DESIGN.md "Parallel execution").

namespace nipo {

namespace {

/// Regression factor on cycles-per-input-tuple that triggers a revert.
/// Per-vector costs drift naturally as the scan moves through the data
/// (especially on clustered layouts), so the threshold leaves room for
/// that drift; genuinely bad orders regress far beyond it.
constexpr double kRevertThreshold = 1.15;
/// Probe co-clusteredness threshold (Section 5.6).
constexpr double kCoClusterThreshold = 0.5;
/// Relative instruction cost assumed per probe evaluation when ranking
/// (base; the miss-informed component is added from samples).
constexpr double kProbeBaseCost = 2.0;

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
  shape.cache.line_size = exec.pmu()->config().l1.line_size;
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
    // Predicates currently running branch-free book no branch events; the
    // counter prediction must mirror that or the estimator would chase
    // branches the executor never produces.
    shape.branch_free.push_back(exec.FormAt(pos) ==
                                PredicateForm::kBranchFree);
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
/// evaluation order of `exec`. Errors for inconsistent samples.
Result<SelectivityEstimate> EstimateOrderSelectivities(
    const PipelineExecutor& exec, const ProgressiveConfig& config,
    const VectorSample& sample) {
  CounterSample cs;
  // Tuples pruned by zone maps never reached per-tuple work, so the
  // sampled branch/cache counters describe only the surviving tuples --
  // feed the estimator that population or it would infer selectivities
  // against work that never happened.
  cs.tuples_in = static_cast<double>(sample.result.input_tuples -
                                     sample.result.zone_skipped);
  cs.tuples_out = static_cast<double>(sample.result.qualifying_tuples);
  cs.counters.branches_not_taken =
      static_cast<double>(sample.counters.branches_not_taken);
  cs.counters.taken_mp =
      static_cast<double>(sample.counters.taken_mispredictions);
  cs.counters.not_taken_mp =
      static_cast<double>(sample.counters.not_taken_mispredictions);
  cs.counters.l3_accesses = static_cast<double>(sample.counters.l3_accesses);

  EstimatorConfig est = config.estimator;
  if (PipelineHasProbe(exec)) {
    // The scan cache model does not cover dimension-side traffic; rely on
    // the (cache-independent) branch counters for selectivities.
    est.counter_set = CounterSet::kBranchesOnly;
  }
  const ScanShape shape = ShapeForOrder(exec, cs.tuples_in);
  return EstimateSelectivities(shape, cs, est);
}

/// Ranks the operators of `exec`'s current order by cost-weighted
/// selectivity (ascending (s-1)/c; for unit costs this is the paper's
/// ascending-selectivity PEO rule; probe cost is informed by the Section
/// 5.5-5.6 sortedness detector on the sampled L3 misses). Under
/// kBranchCycles / kSimdAware pricing, predicate costs come from
/// PricePredicateForms on the simulated machine's CycleModel. Returns the
/// proposed order in original operator indices; when `forms_out` is
/// non-null it receives the per-operator form choice *by original
/// operator index* (cheapest form under kSimdAware, branching otherwise),
/// ready for PipelineExecutor::SetForms.
std::vector<size_t> RankOrderOperators(
    const PipelineExecutor& exec, const ProgressiveConfig& config,
    const VectorSample& sample, const std::vector<double>& selectivities,
    std::vector<PredicateForm>* forms_out) {
  const size_t n = exec.num_operators();
  NIPO_CHECK(selectivities.size() == n);
  const HwConfig& hw = exec.pmu()->config();
  // Cycle price of a plain, perfectly predicted branching predicate: the
  // unit the probe term is expressed in, so kBranchCycles/kSimdAware keep
  // the probe-vs-plain-predicate ratios of the unit rule.
  const double unit_cycles =
      LoopCostModel::kCompareInstructions *
          hw.cycle_model.cycles_per_instruction +
      hw.cycle_model.branch_cycles;

  // Attribute sampled L3 misses to probes for cost weighting. With the
  // (common) single-probe pipelines of the evaluation this is exact
  // enough; multiple probes share the attribution equally.
  size_t probe_count = 0;
  for (size_t pos = 0; pos < n; ++pos) {
    if (exec.OperatorAt(pos).kind == OperatorSpec::Kind::kFkProbe) {
      ++probe_count;
    }
  }

  // Misses attributable to probes: the sampled total minus what the fact-
  // side scan is predicted to cost (cold columns miss once per fetched
  // line, so scan misses ~ scan accesses). Zone-skipped tuples did no
  // per-tuple work, so they are excluded from the scanned population.
  const double surviving_tuples = static_cast<double>(
      sample.result.input_tuples - sample.result.zone_skipped);
  const ScanShape shape = ShapeForOrder(exec, surviving_tuples);
  const double scan_accesses =
      PredictCounters(shape, selectivities).l3_accesses;
  const double probe_misses = std::max(
      0.0, static_cast<double>(sample.counters.l3_misses) - scan_accesses);

  std::vector<double> cost(n, 1.0);
  std::vector<PredicateForm> form_at(n, PredicateForm::kBranching);
  double reach = 1.0;  // fraction of tuples reaching this position
  for (size_t pos = 0; pos < n; ++pos) {
    const OperatorSpec& op = exec.OperatorAt(pos);
    if (op.kind == OperatorSpec::Kind::kPredicate) {
      if (config.pricing == CostPricing::kUnit) {
        cost[pos] = 1.0 + op.predicate.extra_instructions /
                              LoopCostModel::kCompareInstructions / 3.0;
      } else {
        const PredicateFormCosts prices = PricePredicateForms(
            hw.cycle_model, hw.predictor,
            std::clamp(selectivities[pos], 0.0, 1.0),
            LoopCostModel::kCompareInstructions,
            LoopCostModel::kBranchFreeInstructions,
            op.predicate.extra_instructions);
        if (config.pricing == CostPricing::kSimdAware &&
            prices.branch_free_cheaper()) {
          cost[pos] = prices.branch_free;
          form_at[pos] = PredicateForm::kBranchFree;
        } else {
          // Ties stay branching: the branching form feeds the branch
          // counters the estimator learns from.
          cost[pos] = prices.branching;
        }
      }
      // Zone-map-prunable predicates are cheaper than their per-tuple
      // price suggests when evaluated first: every block they refute is
      // skipped wholesale before any operator runs. Discount their cost
      // by the prunable fraction (floored so a fully prunable predicate
      // still carries a nonzero price); plain columns have no zone maps
      // and keep their exact legacy cost.
      const double prunable = exec.ZonePrunableFractionAt(pos);
      if (prunable > 0.0) {
        cost[pos] *= std::max(0.05, 1.0 - prunable);
      }
    } else {
      // Probe cost: base plus a miss-informed component (Section 5.5-5.6).
      ProbeObservation obs;
      obs.relation.num_tuples =
          static_cast<double>(op.probe.dimension->num_rows());
      obs.relation.tuple_width = 8.0;
      obs.num_probes = reach * surviving_tuples;
      obs.sampled_l3_misses =
          probe_misses / static_cast<double>(std::max<size_t>(1, probe_count));
      const SortednessVerdict verdict =
          JudgeSortedness(hw.l3, obs, kCoClusterThreshold);
      cost[pos] = kProbeBaseCost + 20.0 * verdict.score;
      if (config.pricing != CostPricing::kUnit) cost[pos] *= unit_cycles;
    }
    reach *= std::clamp(selectivities[pos], 0.0, 1.0);
  }

  // Classic cost-aware filter ordering: ascending rank (s - 1) / c; for
  // unit costs this degenerates to ascending selectivity, the paper's
  // PEO rule.
  std::vector<size_t> positions(n);
  std::iota(positions.begin(), positions.end(), size_t{0});
  std::vector<double> rank(n);
  for (size_t pos = 0; pos < n; ++pos) {
    rank[pos] = (selectivities[pos] - 1.0) / std::max(cost[pos], 1e-9);
  }
  std::stable_sort(positions.begin(), positions.end(),
                   [&](size_t a, size_t b) { return rank[a] < rank[b]; });

  // Express as original operator indices.
  const std::vector<size_t>& current = exec.current_order();
  std::vector<size_t> proposed;
  proposed.reserve(n);
  for (size_t pos : positions) proposed.push_back(current[pos]);
  if (forms_out != nullptr) {
    forms_out->assign(n, PredicateForm::kBranching);
    for (size_t pos = 0; pos < n; ++pos) {
      (*forms_out)[current[pos]] = form_at[pos];
    }
  }
  return proposed;
}

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
  ++optimization_count_;
  ++report_.num_optimizations;
  if (sample.result.input_tuples == 0) return;

  auto estimate = EstimateOrderSelectivities(*executor_, config_, sample);
  if (!estimate.ok()) {
    return;  // inconsistent sample (e.g. empty vector); skip this cycle
  }
  report_.last_estimate = estimate.ValueOrDie().selectivities;

  const bool simd_aware = config_.pricing == CostPricing::kSimdAware;
  std::vector<PredicateForm> proposed_forms;
  std::vector<size_t> proposed = RankOrderOperators(
      *executor_, config_, sample, estimate.ValueOrDie().selectivities,
      simd_aware ? &proposed_forms : nullptr);
  const bool explore =
      config_.explore_period > 0 &&
      optimization_count_ % config_.explore_period == 0 && proposed.size() > 1;
  if (explore && proposed == executor_->current_order()) {
    // Correlation probe (Section 4.5): try the nearest alternative order
    // to look at data the current order never touches.
    std::swap(proposed[0], proposed[1]);
  }
  const std::vector<PredicateForm> current_forms = executor_->forms();
  const bool order_changed = proposed != executor_->current_order();
  const bool forms_changed = simd_aware && proposed_forms != current_forms;
  if (!order_changed && !forms_changed) {
    return;
  }
  if (hysteresis_ttl_ > 0) {
    --hysteresis_ttl_;
    const bool same_as_reverted =
        proposed == recently_reverted_ &&
        (!simd_aware || proposed_forms == recently_reverted_forms_);
    if (same_as_reverted) {
      return;  // hysteresis: validation just rejected this configuration
    }
  }
  PendingValidation pending;
  pending.old_order = executor_->current_order();
  pending.old_forms = current_forms;
  pending.old_cycles_per_tuple = last_cycles_per_tuple_;
  pending.exploration = explore;
  if (order_changed) NIPO_CHECK(executor_->Reorder(proposed).ok());
  if (forms_changed) NIPO_CHECK(executor_->SetForms(proposed_forms).ok());
  PeoChange change;
  change.vector_index = sample.vector_index;
  change.old_order = pending.old_order;
  change.new_order = proposed;
  change.old_forms = current_forms;
  change.new_forms = forms_changed ? proposed_forms : current_forms;
  change.exploration = explore;
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
      recently_reverted_forms_ = executor_->forms();
      hysteresis_ttl_ = 1;  // skip this order for one optimization cycle
      NIPO_CHECK(executor_->Reorder(pending_->old_order).ok());
      if (!pending_->old_forms.empty()) {
        NIPO_CHECK(executor_->SetForms(pending_->old_forms).ok());
      }
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
  optimization_count_ = 0;
  recently_reverted_.clear();
  recently_reverted_forms_.clear();
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

std::optional<PlanBroadcast> ParallelProgressiveCoordinator::OnMorsel(
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
  const std::vector<PredicateForm> forms = control_->forms();
  optimizer_.OnVector(window_.merged());
  window_.Reset();
  if (control_->current_order() == order && control_->forms() == forms) {
    return std::nullopt;
  }
  ++version_;
  return PlanBroadcast{control_->current_order(), control_->forms()};
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
