/// \file scan_join.cc
/// The closed-loop workloads: scan_plain and scan_encoded (solo driver,
/// Q6 variants over lineitem) and join_sharded (sharded driver, FK-probe
/// joins of lineitem with orders and part).

#include <algorithm>
#include <numeric>
#include <optional>

#include "bench.h"
#include "common/date.h"
#include "storage/column_view.h"
#include "tpch/q6.h"

namespace nipobench {

using namespace nipo;

namespace {

// scan_*: lineitem at SF 0.25 (~1.5M rows, ~58 MB plain, ~60x the
// simulated L3). 4096-row vectors give ~366 vectors per query; the
// optimizer re-ranks every 10 vectors.
constexpr double kScanScaleFactor = 0.25;
constexpr size_t kScanVector = 4096;
constexpr size_t kScanReopt = 10;
// Q6-full runs over one-year shipdate windows starting every quarter from
// 1992-07-01 to 1997-04-01 (the orders span 1992-1998).
constexpr int kScanWindows = 20;

// join_sharded: SF 0.5 (~3M lineitems, 750K orders, 100K parts). The part
// filter column is 800 KB, close to the simulated L3; morsels are the
// progressive sampling unit.
constexpr double kJoinScaleFactor = 0.5;
constexpr size_t kJoinMorsel = 16384;
constexpr size_t kJoinReopt = 10;

std::string SelectivityLabel(double s) {
  if (s == 1e-4) return "1e-4";
  if (s == 1e-2) return "1e-2";
  return "0.5";
}

std::string OrderLabel(const std::vector<size_t>& order) {
  std::string out;
  for (size_t i : order) out += std::to_string(i);
  return out;
}

/// Q6-full on window `w`, with the substitution parameters TPC-H draws for
/// Q6 (DISCOUNT 0.02-0.09, QUANTITY 24-25) cycled over the windows. Where
/// the optimizer ends up depends on near-ties between the predicates'
/// costs. With the paper's fixed parameters on every window, one seed's
/// data tips every window the same way and the pass's progressive/oracle
/// ratio swings between seeds; varied parameters break the ties
/// independently per window (README.md, "Measured findings").
std::pair<std::string, std::vector<OperatorSpec>> Q6FullWindow(int w) {
  const int month = 6 + 3 * w;  // months after 1992-01
  const Date lo{1992 + month / 12, month % 12 + 1, 1};
  const Date hi{lo.year + 1, lo.month, 1};
  const double discount = 2 + w % 8;  // hundredths
  const double quantity = 24 + (w / 8) % 2;
  return {"q6_full_" + FormatDate(lo),
          {OperatorSpec::Predicate(
               {"l_shipdate", CompareOp::kGe,
                static_cast<double>(DateToDayNumber(lo))}),
           OperatorSpec::Predicate(
               {"l_shipdate", CompareOp::kLt,
                static_cast<double>(DateToDayNumber(hi))}),
           OperatorSpec::Predicate({"l_discount", CompareOp::kGe, discount - 1}),
           OperatorSpec::Predicate({"l_discount", CompareOp::kLe, discount + 1}),
           OperatorSpec::Predicate({"l_quantity", CompareOp::kLt, quantity})}};
}

class ScanWorkload final : public Workload {
 public:
  explicit ScanWorkload(bool encoded) : encoded_(encoded) {}

  Result<std::unique_ptr<Engine>> Setup(const Seeds& seeds,
                                        Tracer* tracer) const override {
    return BuildEngine(kScanScaleFactor, /*dimensions=*/false, encoded_,
                       seeds.tpch, tracer);
  }

  // Every query runs from its spec order and the reverse, each as a
  // baseline and progressively, plus once in its oracle order.
  Status Prepare(const Engine& engine, const Seeds&, Checks*) override {
    NIPO_ASSIGN_OR_RETURN(const Table* lineitem, engine.GetTable("lineitem"));
    std::vector<std::pair<std::string, std::vector<OperatorSpec>>> specs;
    for (int w = 0; w < kScanWindows; ++w) specs.push_back(Q6FullWindow(w));
    for (double s : {1e-4, 1e-2, 0.5}) {
      NIPO_ASSIGN_OR_RETURN(int32_t ship,
                            ValueForSelectivity(*lineitem, "l_shipdate", s));
      specs.emplace_back("q6_intro_" + SelectivityLabel(s),
                         MakeQ6IntroPredicates(ship));
    }
    for (auto& [name, ops] : specs) {
      QuerySpec spec{"lineitem", ops, Q6PayloadColumns()};
      NIPO_ASSIGN_OR_RETURN(QueryDef def, DefineQuery(engine, name, spec));
      const size_t q = queries_.size();
      std::vector<size_t> order(ops.size());
      std::iota(order.begin(), order.end(), size_t{0});
      for (int start = 0; start < 2; ++start) {
        runs_.push_back(Run{q, ExecMode::kBaseline, order, false});
        runs_.push_back(Run{q, ExecMode::kProgressive, order, false});
        std::reverse(order.begin(), order.end());
      }
      runs_.push_back(Run{q, ExecMode::kBaseline, def.oracle_order, true});
      queries_.push_back(std::move(def));
    }
    return Status::OK();
  }

  PassResult RunPass(const Engine& engine, Tracer* tracer,
                     Checks* checks) override {
    PassResult out;
    std::vector<RunOutcome> outcomes(runs_.size());
    const auto t0 = Clock::now();
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      const QueryDef& q = queries_[run.query];
      const ReferenceTimer timer(1);
      auto r = RunSolo(engine, q.spec,
                       SoloOptions(run.mode, run.order, kScanVector,
                                   kScanReopt),
                       tracer);
      out.execution_ref_s.push_back(timer.Seconds());
      const bool ok = r.ok() && MatchesReference(q, r->qualifying_tuples,
                                                 r->aggregate);
      checks->Execution(ok, q.name + " order " + OrderLabel(run.order) +
                                (r.ok() ? "" : ": " + r.status().ToString()));
      if (!r.ok()) {
        out.fingerprint.push_back(~uint64_t{0});
        continue;
      }
      out.tuples += r->input_tuples;
      out.tally.Add(*r);
      AddReport(*r, &out.fingerprint);
      outcomes[i] = RunOutcome{ok, r->simulated_msec, r->simulated_msec};
    }
    out.wall_s = SecondsSince(t0);
    SummarizeRuns(runs_, outcomes, queries_.size(), &out);
    return out;
  }

 private:
  bool encoded_;
  std::vector<Run> runs_;
};

class JoinWorkload final : public Workload {
 public:
  Result<std::unique_ptr<Engine>> Setup(const Seeds& seeds,
                                        Tracer* tracer) const override {
    return BuildEngine(kJoinScaleFactor, /*dimensions=*/true,
                       /*encode=*/false, seeds.tpch, tracer);
  }

  Status Prepare(const Engine& engine, const Seeds&,
                 Checks* checks) override {
    NIPO_ASSIGN_OR_RETURN(const Table* orders, engine.GetTable("orders"));
    NIPO_ASSIGN_OR_RETURN(const Table* part, engine.GetTable("part"));
    NIPO_ASSIGN_OR_RETURN(double order_price,
                          ColumnMedian(*orders, "o_totalprice"));
    NIPO_ASSIGN_OR_RETURN(double part_price,
                          ColumnMedian(*part, "p_retailprice"));
    const OperatorSpec orders_probe = OperatorSpec::FkProbe(
        {"l_orderkey", orders, "o_totalprice", CompareOp::kLe, order_price});
    const OperatorSpec part_probe = OperatorSpec::FkProbe(
        {"l_partkey", part, "p_retailprice", CompareOp::kLe, part_price});
    const std::vector<std::pair<std::string, std::vector<OperatorSpec>>>
        specs = {
            {"j1",
             {OperatorSpec::Predicate({"l_quantity", CompareOp::kLe, 25.0}),
              orders_probe}},
            {"j2",
             {OperatorSpec::Predicate({"l_quantity", CompareOp::kLe, 10.0}),
              orders_probe, part_probe}},
        };
    for (const auto& [name, ops] : specs) {
      QuerySpec spec{"lineitem", ops, Q6PayloadColumns()};
      NIPO_ASSIGN_OR_RETURN(QueryDef def, DefineQuery(engine, name, spec));
      const size_t q = queries_.size();
      for (const auto& order : AllOrders(ops.size())) {
        runs_.push_back(Run{q, ExecMode::kBaseline, order, false});
        runs_.push_back(Run{q, ExecMode::kProgressive, order, false});
      }
      // The solo result the sharded merge must reproduce exactly.
      const auto t0 = Clock::now();
      auto solo = engine.Execute(
          def.spec, SoloOptions(ExecMode::kBaseline, {}, kJoinMorsel, 1));
      solo_wall_s_.push_back(SecondsSince(t0));
      checks->Execution(solo.ok() && MatchesReference(def,
                                                      solo->qualifying_tuples,
                                                      solo->aggregate),
                        name + " solo");
      NIPO_RETURN_NOT_OK(solo.status());
      solo_.push_back(std::move(solo).ValueOrDie());
      queries_.push_back(std::move(def));
    }
    return Status::OK();
  }

  PassResult RunPass(const Engine& engine, Tracer* tracer,
                     Checks* checks) override {
    PassResult out;
    std::vector<RunOutcome> outcomes(runs_.size());
    last_.assign(runs_.size(), std::nullopt);
    last_wall_s_.assign(runs_.size(), 0);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      const QueryDef& q = queries_[run.query];
      ExecOptions options =
          SoloOptions(run.mode, run.order, kJoinMorsel, kJoinReopt);
      options.driver = ExecDriver::kSharded;
      options.num_threads = NumThreads();
      const ReferenceTimer timer(options.num_threads);
      const auto start = Clock::now();
      Result<ExecReport> r = Status::Internal("not run");
      {
        ScopedSpan span(tracer, kSpanExecute, tracer->NextQueryId());
        r = engine.Execute(q.spec, options);
      }
      last_wall_s_[i] = SecondsSince(start);
      out.execution_ref_s.push_back(timer.Seconds());
      const ExecReport& solo = solo_[run.query];
      const bool ok = r.ok() &&
                      MatchesReference(q, r->qualifying_tuples,
                                       r->aggregate) &&
                      r->qualifying_tuples == solo.qualifying_tuples &&
                      r->aggregate == solo.aggregate;
      checks->Execution(ok, q.name + " order " + OrderLabel(run.order) +
                                (r.ok() ? "" : ": " + r.status().ToString()));
      if (!r.ok()) {
        out.fingerprint.push_back(~uint64_t{0});
        continue;
      }
      // Only the results are schedule-independent: which worker runs
      // which morsel, and so every counter, depends on host timing.
      out.fingerprint.push_back(r->qualifying_tuples);
      out.fingerprint.push_back(Bits(r->aggregate));
      out.tuples += r->input_tuples;
      out.tally.Add(*r);
      const ParallelDriveResult& drive = Drive(*r);
      double machine_ms = 0;
      for (const WorkerStats& w : drive.workers) machine_ms += w.simulated_msec;
      // Latency as if the workers were perfectly balanced: the critical
      // path (r->simulated_msec) follows the host schedule, and on a busy
      // host its p95 moved 5% between runs of one seed.
      outcomes[i] = RunOutcome{
          ok, machine_ms,
          machine_ms / static_cast<double>(drive.workers.size())};
      last_[i] = std::move(r).ValueOrDie();
    }
    out.wall_s = SecondsSince(t0);
    SummarizeRuns(runs_, outcomes, queries_.size(), &out);
    return out;
  }

  std::vector<std::pair<size_t, ExecOptions>> ReplaySet() const override {
    std::vector<std::pair<size_t, ExecOptions>> set;
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (ExecMode mode : {ExecMode::kBaseline, ExecMode::kProgressive}) {
        set.emplace_back(q, SoloOptions(mode, {}, kJoinMorsel, kJoinReopt));
      }
    }
    return set;
  }

  void AddLayerMetrics(const Engine&, Checks*, Metrics* out) override {
    std::vector<double> speedup;
    double region_s = 0, execute_s = 0, imbalance = 0;
    uint64_t steals = 0, stale = 0, progressive_morsels = 0;
    size_t executions = 0;
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (!last_[i].has_value()) continue;
      const ParallelDriveResult& drive = Drive(*last_[i]);
      const bool identity = std::is_sorted(runs_[i].order.begin(),
                                           runs_[i].order.end());
      if (runs_[i].mode == ExecMode::kBaseline && identity) {
        speedup.push_back(solo_wall_s_[runs_[i].query] / last_wall_s_[i]);
      }
      region_s += drive.wall_msec / 1e3;
      execute_s += last_wall_s_[i];
      double max_ms = 0, sum_ms = 0;
      for (const WorkerStats& w : drive.workers) {
        max_ms = std::max(max_ms, w.simulated_msec);
        sum_ms += w.simulated_msec;
        steals += w.steals;
      }
      if (sum_ms > 0) {
        imbalance +=
            max_ms / (sum_ms / static_cast<double>(drive.workers.size()));
      }
      if (last_[i]->sharded_progressive.has_value()) {
        stale += last_[i]->sharded_progressive->stale_morsels;
        progressive_morsels += drive.num_morsels;
      }
      ++executions;
    }
    const double n = static_cast<double>(std::max<size_t>(executions, 1));
    out->Set("exec.sharded.wall_speedup", Median(speedup), "x");
    out->Set("exec.sharded.region_share",
             execute_s > 0 ? region_s / execute_s : 0, "fraction");
    out->Set("exec.sharded.worker_imbalance", imbalance / n, "x");
    out->Set("exec.sharded.steals_per_query", static_cast<double>(steals) / n,
             "count");
    out->Set("exec.sharded.stale_morsel_frac",
             progressive_morsels > 0 ? static_cast<double>(stale) /
                                           static_cast<double>(
                                               progressive_morsels)
                                     : 0,
             "fraction");
  }

 private:
  static const ParallelDriveResult& Drive(const ExecReport& r) {
    return r.sharded_progressive.has_value() ? r.sharded_progressive->drive
                                             : r.sharded_baseline->drive;
  }

  std::vector<Run> runs_;
  std::vector<ExecReport> solo_;
  std::vector<double> solo_wall_s_;
  std::vector<std::optional<ExecReport>> last_;
  std::vector<double> last_wall_s_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanWorkload(bool encoded) {
  return std::make_unique<ScanWorkload>(encoded);
}

std::unique_ptr<Workload> MakeJoinWorkload() {
  return std::make_unique<JoinWorkload>();
}

}  // namespace nipobench
