/// \file service.cc
/// The service workload: a stream of small parameterized queries through
/// the workload driver, first as a closed queue on the threaded pool
/// (phase A), then as an open loop at a fixed ladder of arrival rates with
/// shared-L3 contention, transient faults, retry and deadline shedding
/// (phase B).

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench.h"
#include "common/date.h"
#include "common/prng.h"
#include "storage/column_view.h"
#include "tpch/q6.h"

namespace nipobench {

using namespace nipo;

namespace {

// Lineitem at SF 0.01 (~60K rows): the orders and part filter columns
// (120 KB, 16 KB) fit the simulated L3, and a query is ~30 vectors, so
// per-query fixed costs (compile, machine construction) show.
constexpr double kServiceScaleFactor = 0.01;
constexpr size_t kServiceVector = 2048;
constexpr size_t kServiceReopt = 5;
// 400 queries leave 20 samples beyond the p95. Near the median, one rank
// is ~0.3% of latency, and with 200 queries the p50 moved 6% between seeds.
constexpr size_t kStreamLength = 400;
constexpr size_t kBurstVectors = 4;
constexpr size_t kSimWorkers = 4;  // phase B: simulated, not host, workers
// Seeds the stream's parameter draws and its Poisson arrivals, which are
// part of the workload's definition rather than of --seed: arrivals drawn
// per seed moved the nominal-rate p95 by 30% between seeds.
constexpr uint64_t kStreamSeed = 42;

// Frozen at calibration (seed 42): mu0 is the closed-queue simulated
// throughput of the stream under phase B's options without faults or
// deadlines; solo is the stream's mean solo simulated time. The --trace
// run prints both as info (calibration.*) so they can be re-derived.
constexpr double kMu0Qps = 12500.5;
constexpr double kSoloMs = 0.3279;
constexpr double kRateLadder[] = {0.5 * kMu0Qps, 0.7 * kMu0Qps,
                                  0.85 * kMu0Qps, 1.0 * kMu0Qps};
constexpr size_t kNominalRate = 2;
constexpr size_t kTopRate = 3;
constexpr double kDeadlineMs = 20.0 * kSoloMs;
constexpr double kLatencyLimitMs = 3.0 * kSoloMs;
// Per-quantum transient faults: ~2% of queries retry, so retries are
// exercised without deciding the p95 (20 samples beyond it).
constexpr double kFaultRate = 0.002;
constexpr size_t kMaxAttempts = 3;
constexpr double kBackoffBaseMs = 0.25 * kSoloMs;
constexpr double kBackoffCapMs = 2.0 * kSoloMs;
// A failed, shed or killed query counts with this latency: it misses the
// limit L without making a percentile infinite.
constexpr double kMissedLatencyMs = 2.0 * kDeadlineMs;

bool InjectedFailure(const WorkloadQueryReport& q) {
  return q.error.message().rfind("fault injection", 0) == 0;
}

/// Sorted values of a column, for drawing quantile thresholds.
Result<std::vector<double>> SortedValues(const Table& table,
                                         const std::string& column) {
  NIPO_ASSIGN_OR_RETURN(const ColumnBase* col, table.GetColumn(column));
  NIPO_ASSIGN_OR_RETURN(ColumnView view, ColumnView::Bind(col));
  if (view.size() == 0) return Status::InvalidArgument("empty " + column);
  std::vector<double> values(view.size());
  for (size_t row = 0; row < values.size(); ++row) {
    values[row] = view.ValueAsDouble(row);
  }
  std::sort(values.begin(), values.end());
  return values;
}

double Quantile(const std::vector<double>& sorted, double q) {
  const size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(i, sorted.size() - 1)];
}

class ServiceWorkload final : public Workload {
 public:
  Result<std::unique_ptr<Engine>> Setup(const Seeds& seeds,
                                        Tracer* tracer) const override {
    return BuildEngine(kServiceScaleFactor, /*dimensions=*/true,
                       /*encode=*/false, seeds.tpch, tracer);
  }

  // Query i of the stream follows template i % 4 -- Q6 full over a
  // one-year window, Q6 intro at a shipdate selectivity, a quantity
  // filter with an orders probe, a quantity filter with a part probe --
  // with drawn parameters, so service times spread continuously instead
  // of clustering per template (a percentile between two clusters would
  // jump). The draws are part of the workload's definition, not of its
  // seed: redrawing them per seed moves the p50 by ~10%.
  // Selectivity parameters are quantiles of the generated data. Queries
  // 4..7 of every 8 run progressively.
  Status Prepare(const Engine& engine, const Seeds& seeds,
                 Checks* checks) override {
    seeds_ = seeds;
    NIPO_ASSIGN_OR_RETURN(const Table* lineitem, engine.GetTable("lineitem"));
    NIPO_ASSIGN_OR_RETURN(const Table* orders, engine.GetTable("orders"));
    NIPO_ASSIGN_OR_RETURN(const Table* part, engine.GetTable("part"));
    NIPO_ASSIGN_OR_RETURN(std::vector<double> ship,
                          SortedValues(*lineitem, "l_shipdate"));
    NIPO_ASSIGN_OR_RETURN(std::vector<double> order_price,
                          SortedValues(*orders, "o_totalprice"));
    NIPO_ASSIGN_OR_RETURN(std::vector<double> part_price,
                          SortedValues(*part, "p_retailprice"));
    const int32_t first_day = DateToDayNumber(Date{1992, 6, 1});
    const int32_t last_day = DateToDayNumber(Date{1997, 6, 1});
    Prng prng(kStreamSeed);
    for (size_t i = 0; i < kStreamLength; ++i) {
      std::string name;
      std::vector<OperatorSpec> ops;
      const double quantity = static_cast<double>(prng.NextInRange(5, 45));
      switch (i % 4) {
        case 0: {
          const auto lo =
              static_cast<int32_t>(prng.NextInRange(first_day, last_day));
          name = "q6_full";
          ops = MakeQ6FullPredicates(lo, lo + 365);
          break;
        }
        case 1: {
          const double s = std::pow(10.0, -3.0 + 2.7 * prng.NextDouble());
          name = "q6_intro";
          ops = MakeQ6IntroPredicates(static_cast<int32_t>(Quantile(ship, s)));
          break;
        }
        case 2:
          name = "j1";
          ops = {OperatorSpec::Predicate(
                     {"l_quantity", CompareOp::kLe, quantity}),
                 OperatorSpec::FkProbe(
                     {"l_orderkey", orders, "o_totalprice", CompareOp::kLe,
                      Quantile(order_price, 0.2 + 0.6 * prng.NextDouble())})};
          break;
        default:
          name = "part_probe";
          ops = {OperatorSpec::Predicate(
                     {"l_quantity", CompareOp::kLe, quantity}),
                 OperatorSpec::FkProbe(
                     {"l_partkey", part, "p_retailprice", CompareOp::kLe,
                      Quantile(part_price, 0.2 + 0.6 * prng.NextDouble())})};
          break;
      }
      const bool progressive = (i / 4) % 2 == 1;
      NIPO_ASSIGN_OR_RETURN(
          QueryDef def,
          DefineQuery(engine, name + "#" + std::to_string(i),
                      QuerySpec{"lineitem", ops, Q6PayloadColumns()}));
      // The solo run phase A must reproduce bit for bit, and phase B in
      // its results.
      auto solo = engine.Execute(def.spec, QueryOptions(i));
      checks->Execution(solo.ok() && MatchesReference(def,
                                                      solo->qualifying_tuples,
                                                      solo->aggregate),
                        def.name + " solo");
      NIPO_RETURN_NOT_OK(solo.status());
      // Oracle of a progressive query: the cheaper of its spec order and
      // its ascending-true-selectivity order, run once here.
      double oracle = 0;
      if (progressive) {
        oracle = std::numeric_limits<double>::infinity();
        for (const std::vector<size_t>& order :
             {std::vector<size_t>{}, def.oracle_order}) {
          auto fixed = engine.Execute(
              def.spec, SoloOptions(ExecMode::kBaseline, order,
                                    kServiceVector, kServiceReopt));
          checks->Execution(fixed.ok(), def.name + " oracle");
          NIPO_RETURN_NOT_OK(fixed.status());
          oracle = std::min(oracle, fixed->simulated_msec);
        }
      }
      oracle_ms_.push_back(oracle);
      solo_.push_back(std::move(solo).ValueOrDie());
      WorkloadQuery wq;
      wq.name = def.name;
      wq.query = def.spec;
      wq.progressive = progressive;
      wq.config.vector_size = kServiceVector;
      wq.config.reopt_interval = kServiceReopt;
      stream_.queries.push_back(std::move(wq));
      queries_.push_back(std::move(def));
    }
    return Status::OK();
  }

  PassResult RunPass(const Engine& engine, Tracer* tracer,
                     Checks* checks) override {
    PassResult out;
    const auto t0 = Clock::now();

    // Phase A: closed queue on the threaded pool, no contention.
    WorkloadSpec closed = stream_;
    closed.options.num_threads = NumThreads();
    closed.options.max_concurrent = NumThreads();
    closed.options.burst_vectors = kBurstVectors;
    const ReferenceTimer pool_timer(closed.options.num_threads);
    const auto start = Clock::now();
    Result<WorkloadReport> a = Status::Internal("not run");
    {
      ScopedSpan span(tracer, kSpanPool);
      a = engine.Execute(closed);
    }
    pool_wall_s_ = SecondsSince(start);
    out.execution_ref_s.push_back(pool_timer.Seconds());
    if (!a.ok()) {
      checks->Execution(false, "phase A: " + a.status().ToString());
      out.fingerprint.push_back(~uint64_t{0});
    } else {
      for (size_t i = 0; i < a->queries.size(); ++i) {
        const WorkloadQueryReport& q = a->queries[i];
        const ExecReport& solo = solo_[i];
        const bool ok = q.outcome == QueryOutcome::kOk &&
                        q.drive.qualifying_tuples == solo.qualifying_tuples &&
                        q.drive.aggregate == solo.aggregate &&
                        q.drive.total == solo.counters;
        checks->Execution(ok, "phase A " + q.name);
        out.tuples += q.drive.input_tuples;
        out.fingerprint.push_back(Bits(q.drive.simulated_msec));
        if (q.progressive) {
          out.sim_progressive_ms += q.drive.simulated_msec;
          out.sim_oracle_ms += oracle_ms_[i];
        } else {
          out.sim_baseline_ms += q.drive.simulated_msec;
        }
      }
    }

    // Phase B: the rate ladder.
    last_b_.assign(std::size(kRateLadder), std::nullopt);
    event_wall_s_.assign(std::size(kRateLadder), 0);
    double max_rate = 0;
    for (size_t r = 0; r < std::size(kRateLadder); ++r) {
      const WorkloadSpec spec = OpenSpec(kRateLadder[r]);
      const ReferenceTimer timer(1);  // the event loop runs on this thread
      const auto event_start = Clock::now();
      Result<WorkloadReport> b = Status::Internal("not run");
      {
        ScopedSpan span(tracer, kSpanEvent);
        b = engine.Execute(spec);
      }
      event_wall_s_[r] = SecondsSince(event_start);
      out.execution_ref_s.push_back(timer.Seconds());
      if (!b.ok()) {
        checks->Execution(false, "phase B: " + b.status().ToString());
        out.fingerprint.push_back(~uint64_t{0});
        continue;
      }
      std::vector<double> latency;
      for (size_t i = 0; i < b->queries.size(); ++i) {
        const WorkloadQueryReport& q = b->queries[i];
        const ExecReport& solo = solo_[i];
        bool ok = true;
        if (q.outcome == QueryOutcome::kOk) {
          ok = q.drive.qualifying_tuples == solo.qualifying_tuples &&
               q.drive.aggregate == solo.aggregate;
        } else if (q.outcome == QueryOutcome::kFailed) {
          ok = InjectedFailure(q);
        }
        checks->Execution(ok, "phase B " + q.name);
        out.tuples += q.drive.input_tuples;
        latency.push_back(q.outcome == QueryOutcome::kOk ? q.sim_latency_msec
                                                         : kMissedLatencyMs);
        out.fingerprint.push_back(static_cast<uint64_t>(q.outcome));
        out.fingerprint.push_back(Bits(q.sim_latency_msec));
      }
      out.fingerprint.push_back(Bits(b->sim_goodput_qps));
      if (r == kNominalRate) {
        out.latency_ms = latency;
        for (const WorkloadQueryReport& q : b->queries) {
          out.tally.AddExecution(q.drive.total, q.drive.input_tuples,
                                 q.drive.zone_skipped_tuples);
          if (q.progressive) {
            out.tally.AddDecisions(q.num_optimizations, q.changes);
          }
        }
      }
      if (r == kTopRate) out.goodput_qps = b->sim_goodput_qps;
      const double p95 = NearestRank(latency, 95);
      out.info.emplace_back("sim_latency_ms_p95.rate_qps_" +
                                std::to_string(static_cast<int>(kRateLadder[r])),
                            p95);
      if (p95 <= kLatencyLimitMs && !Backlogged(*b)) {
        max_rate = kRateLadder[r];
      }
      last_b_[r] = std::move(b).ValueOrDie();
    }
    out.info.emplace_back("sim_max_rate_qps", max_rate);

    out.wall_s = SecondsSince(t0);
    pass_wall_s_ = out.wall_s;
    return out;
  }

  std::vector<std::pair<size_t, ExecOptions>> ReplaySet() const override {
    std::vector<std::pair<size_t, ExecOptions>> set;
    for (size_t i = 0; i < 8; ++i) set.emplace_back(i, QueryOptions(i));
    return set;
  }

  void AddLayerMetrics(const Engine& engine, Checks* checks,
                       Metrics* out) override {
    double event_s = 0;
    for (double s : event_wall_s_) event_s += s;
    out->Set("exec.workload.pool_share", pool_wall_s_ / pass_wall_s_,
             "fraction");
    out->Set("exec.workload.event_share", event_s / pass_wall_s_,
             "fraction");
    size_t queries = 0, retries = 0, shed = 0, killed = 0, useful = 0;
    for (const auto& b : last_b_) {
      if (!b.has_value()) continue;
      queries += b->queries.size();
      retries += b->total_retries;
      shed += b->queries_shed;
      killed += b->queries_deadline_exceeded;
      for (const WorkloadQueryReport& q : b->queries) {
        if (q.attempts > 1 && q.outcome == QueryOutcome::kOk) ++useful;
      }
    }
    const double n = static_cast<double>(std::max<size_t>(queries, 1));
    out->Set("exec.workload.retries_per_query",
             static_cast<double>(retries) / n, "count");
    out->Set("exec.workload.shed_frac", static_cast<double>(shed) / n,
             "fraction");
    out->Set("exec.workload.deadline_kill_frac",
             static_cast<double>(killed) / n, "fraction");
    out->Set("exec.workload.retry_useful_frac",
             retries > 0 ? static_cast<double>(useful) /
                               static_cast<double>(retries)
                         : 0,
             "fraction");
    if (last_b_[kNominalRate].has_value()) {
      const WorkloadReport& b = *last_b_[kNominalRate];
      double quanta = 0, wait = 0, latency = 0;
      for (const WorkloadQueryReport& q : b.queries) {
        quanta += static_cast<double>(q.quanta);
        if (q.outcome == QueryOutcome::kOk) {
          wait += q.sim_queue_wait_msec;
          latency += q.sim_latency_msec;
        }
      }
      out->Set("exec.workload.quanta_per_query",
               quanta / static_cast<double>(b.queries.size()), "count");
      out->Set("exec.workload.queue_wait_frac",
               latency > 0 ? wait / latency : 0, "fraction");
      out->Set("exec.workload.replay_share",
               ReplayNominal(b, checks) / event_wall_s_[kNominalRate],
               "fraction");
    }
    Calibrate(engine, out);
  }

 private:
  static ExecOptions QueryOptions(size_t i) {
    return SoloOptions((i / 4) % 2 == 1 ? ExecMode::kProgressive
                                        : ExecMode::kBaseline,
                       {}, kServiceVector, kServiceReopt);
  }

  WorkloadSpec OpenSpec(double rate_qps) const {
    WorkloadSpec spec = stream_;
    WorkloadOptions& o = spec.options;
    o.num_threads = kSimWorkers;
    o.max_concurrent = kSimWorkers;
    o.burst_vectors = kBurstVectors;
    o.contention = true;
    o.arrival.kind = ArrivalKind::kPoisson;
    o.arrival.rate_qps = rate_qps;
    o.arrival.seed = kStreamSeed;
    o.faults.seed = seeds_.fault;
    o.faults.transient_fault_rate = kFaultRate;
    o.retry.max_attempts = kMaxAttempts;
    o.retry.backoff_base_msec = kBackoffBaseMs;
    o.retry.backoff_cap_msec = kBackoffCapMs;
    o.shed_deadline = true;
    for (WorkloadQuery& q : spec.queries) q.sim_deadline_msec = kDeadlineMs;
    return spec;
  }

  /// A growing backlog: the median queue wait of the last quarter of
  /// arrivals exceeds twice that of the first quarter (and one mean solo
  /// service time, so an idle start does not make every wait a backlog).
  static bool Backlogged(const WorkloadReport& b) {
    const size_t quarter = b.queries.size() / 4;
    std::vector<double> first, last;
    for (size_t i = 0; i < quarter; ++i) {
      first.push_back(b.queries[i].sim_queue_wait_msec);
      last.push_back(b.queries[b.queries.size() - 1 - i].sim_queue_wait_msec);
    }
    return Median(last) > std::max(2.0 * Median(first), kSoloMs);
  }

  /// Replays the nominal-rate run from its recorded quanta and checks the
  /// replay reproduces every completion; returns the replay's host time.
  double ReplayNominal(const WorkloadReport& b, Checks* checks) const {
    std::vector<std::vector<QuantumTrace>> traces;
    std::vector<double> arrivals;
    ServiceFaultSpec faults;
    faults.retry.max_attempts = kMaxAttempts;
    faults.retry.backoff_base_msec = kBackoffBaseMs;
    faults.retry.backoff_cap_msec = kBackoffCapMs;
    faults.shed_deadline = true;
    for (const WorkloadQueryReport& q : b.queries) {
      std::vector<QuantumTrace> trace;
      for (size_t k = 0; k < q.quantum_msec.size(); ++k) {
        trace.push_back(QuantumTrace{q.quantum_msec[k], q.quantum_evictions[k],
                                     q.quantum_occupancy[k],
                                     q.quantum_fate[k]});
      }
      traces.push_back(std::move(trace));
      arrivals.push_back(q.sim_arrival_msec);
      faults.deadline_msec.push_back(kDeadlineMs);
    }
    const auto t0 = Clock::now();
    const SimSchedule replay = SimulateWorkloadSchedule(
        traces, arrivals, kSimWorkers, kSimWorkers, SchedulePolicyConfig{},
        /*adaptive=*/nullptr, &faults);
    const double seconds = SecondsSince(t0);
    bool same = replay.finish_msec.size() == b.queries.size();
    for (size_t i = 0; same && i < b.queries.size(); ++i) {
      same = replay.finish_msec[i] == b.queries[i].sim_finish_msec &&
             replay.outcome[i] == b.queries[i].outcome;
    }
    checks->Gate(same, "schedule replay differs from the live phase B run");
    return seconds;
  }

  /// Re-derives the frozen constants: prints mu0 and the mean solo time.
  void Calibrate(const Engine& engine, Metrics* out) const {
    double solo_ms = 0;
    for (const ExecReport& r : solo_) solo_ms += r.simulated_msec;
    out->Info("calibration.mean_solo_ms",
              solo_ms / static_cast<double>(solo_.size()));
    WorkloadSpec closed = stream_;
    closed.options.num_threads = kSimWorkers;
    closed.options.max_concurrent = kSimWorkers;
    closed.options.burst_vectors = kBurstVectors;
    closed.options.contention = true;
    auto r = engine.Execute(closed);
    if (r.ok()) out->Info("calibration.mu0_qps", r->sim_queries_per_sec);
  }

  Seeds seeds_;
  std::vector<ExecReport> solo_;    // per stream query
  std::vector<double> oracle_ms_;  // per stream query; 0 for baselines
  WorkloadSpec stream_;
  std::vector<std::optional<WorkloadReport>> last_b_;
  std::vector<double> event_wall_s_;
  double pool_wall_s_ = 0;
  double pass_wall_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceWorkload() {
  return std::make_unique<ServiceWorkload>();
}

}  // namespace nipobench
