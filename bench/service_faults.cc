/// \file service_faults.cc
/// Graceful degradation under injected faults (DESIGN.md Section 9
/// "Fault-tolerant service"): a homogeneous scan workload arrives as a
/// Poisson stream at 70% of the fault-free service capacity on a
/// 2-worker pool, every query carrying the same simulated deadline, and
/// the per-quantum transient-fault rate is swept from zero to a level
/// that pushes the *effective* load (retries re-run whole attempts, a
/// slice of quanta stall at 4x) past saturation. Three service
/// configurations face the same fault schedule (same FaultPlan seed —
/// draws are pure per-(query, attempt, quantum) functions, so the
/// configs see identical fault coordinates):
///
///   no_retry    max_attempts = 1 — every transient fault kills its
///               query (kFailed); capacity is never spent twice, but
///               goodput falls roughly with the per-attempt fault
///               probability;
///   retry       capped-exponential-backoff retry (4 attempts) —
///               failed attempts are re-run, recovering almost every
///               query. At moderate fault rates the recovery is nearly
///               free and retry clearly wins; at the top rate the
///               re-runs burn capacity exactly when faults are most
///               frequent (retry amplification), the backlog grows,
///               and the tail of the stream dies by deadline instead
///               (kDeadlineExceeded) — after burning worker time;
///   retry_shed  retry + deadline-aware admission shedding — queries
///               predicted to miss their deadline are rejected at
///               admission (kShed) before consuming a slot, so the
///               capacity a doomed query would have wasted serves
///               queries that can still finish in time. Shedding is
///               what keeps retry viable past saturation.
///
/// The headline is goodput (completed-OK queries per simulated second)
/// per (config, fault rate). Gates: at fault rate zero the three
/// configs are bit-identical and all-OK (the fault layer is inert when
/// nothing fires); goodput degrades gracefully — positive everywhere,
/// lower at the top rate than at zero; at the moderate rate retry
/// beats no_retry (recovery pays while capacity lasts); at the top
/// rate retry_shed beats plain retry (early rejection beats late
/// deadline kills — this is where unshedded retry amplification
/// actually loses to fail-fast); and the hardest point rerun is
/// bit-identical in every outcome, attempt count, backoff wait and
/// latency figure. All metrics are simulated time, bit-stable on any
/// host.
///
/// Run with `--json` (ci/check.sh does, in --quick smoke form) to write
/// BENCH_service_faults.json for the perf trajectory (EXPERIMENTS.md
/// "Graceful degradation"). The perf-gate metric is goodput at fault
/// rate zero — the fault-free service baseline tracks simulator health;
/// the faulty points measure *policy* quality, not speed.

#include <iostream>

#include "bench_util.h"
#include "common/prng.h"
#include "core/report.h"

namespace {

using namespace nipo;
using namespace nipo::bench;

std::unique_ptr<Table> MakeFact(const std::string& name, size_t n,
                                uint64_t seed, size_t fk_domain) {
  Prng prng(seed);
  std::vector<int32_t> a(n), fk(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(fk_domain));
  }
  auto t = std::make_unique<Table>(name);
  NIPO_CHECK(t->AddColumn("a", std::move(a)).ok());
  NIPO_CHECK(t->AddColumn("fk", std::move(fk)).ok());
  return t;
}

std::unique_ptr<Table> MakeDim(const std::string& name, size_t n,
                               uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> attr(n);
  for (auto& v : attr) v = static_cast<int32_t>(prng.NextBounded(100));
  auto t = std::make_unique<Table>(name);
  NIPO_CHECK(t->AddColumn("attr", std::move(attr)).ok());
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--verbose") verbose = true;
  }
  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_service_faults.json", &json_path);

  const size_t scale = quick ? 2 : 1;
  Engine engine(HwConfig::ScaledXeon(quick ? 32 : 16));
  const size_t fact_rows = 48'000 / scale;
  const size_t dim_rows = 10'000 / scale;
  NIPO_CHECK(
      engine.RegisterTable(MakeFact("fact", fact_rows, 11, dim_rows)).ok());
  NIPO_CHECK(engine.RegisterTable(MakeDim("dim", dim_rows, 12)).ok());

  // A stream of identical scan+FK-probe queries: homogeneity keeps the
  // service-time distribution a single point, so every goodput movement
  // in the sweep is attributable to the fault axis, not workload mix.
  // burst_vectors = 4 puts ~6 quanta in each attempt — coarse enough
  // that per-quantum fault rates translate into meaningful per-attempt
  // failure probabilities, fine enough that deadline kills land mid-run.
  const size_t num_queries = quick ? 16 : 32;
  WorkloadSpec spec;
  const Table* dim_table = engine.GetTable("dim").ValueOrDie();
  for (size_t i = 0; i < num_queries; ++i) {
    WorkloadQuery q;
    q.name = "q" + std::to_string(i);
    q.query.table = "fact";
    q.query.ops = {
        OperatorSpec::Predicate({"a", CompareOp::kLt, 70.0}),
        OperatorSpec::FkProbe({"fk", dim_table, "attr", CompareOp::kLt, 60.0}),
    };
    q.progressive = false;
    q.config.vector_size = 2048 / scale;
    spec.queries.push_back(std::move(q));
  }
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 2;
  spec.options.burst_vectors = 4;

  // Calibrate the fault-free service capacity mu from a closed-queue run
  // (the calibration pins the arrival grid to the simulated machine, so
  // the same load fraction means the same thing in --quick and full
  // runs), then fix one open-loop operating point at 70% of it with a
  // 5x-solo deadline: enough headroom that the zero-fault point meets
  // every deadline, little enough that retry amplification at the top
  // fault rate pushes the effective load past 1 and deadlines start
  // deciding goodput.
  const WorkloadReport calib = ExecuteWorkloadBestOf2(engine, spec);
  const double mu_qps = calib.sim_queries_per_sec;
  const double solo_msec = calib.queries[0].drive.simulated_msec;
  const double rate_qps = 0.70 * mu_qps;
  const double deadline_msec = 5.0 * solo_msec;
  for (WorkloadQuery& q : spec.queries) q.sim_deadline_msec = deadline_msec;
  spec.options.arrival.kind = ArrivalKind::kPoisson;
  spec.options.arrival.rate_qps = rate_qps;
  spec.options.arrival.seed = 42;

  // The fault axis: per-quantum transient-fault probability, with a 5%
  // slice of quanta stalling at 4x throughout (a faulty fleet is also a
  // slow fleet). At ~6 quanta per attempt the top rate fails nearly
  // half the attempts — within what 4 attempts of retry can recover
  // query-wise, but not within the capacity the re-runs cost.
  const std::vector<double> fault_rates = {0.0, 0.02, 0.05, 0.10};
  FaultPlan faults;
  faults.seed = 1234;
  faults.stall_rate = 0.05;
  faults.stall_factor = 4.0;

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base_msec = 0.25 * solo_msec;
  retry.backoff_cap_msec = 2.0 * solo_msec;

  struct Config {
    std::string name;
    bool retry = false;
    bool shed = false;
  };
  const std::vector<Config> configs = {
      {"no_retry", false, false},
      {"retry", true, false},
      {"retry_shed", true, true},
  };

  auto run_point = [&](const Config& config, double rate) {
    spec.options.faults = faults;
    spec.options.faults.transient_fault_rate = rate;
    spec.options.retry = config.retry ? retry : RetryPolicy{};
    spec.options.shed_deadline = config.shed;
    return ExecuteWorkloadBestOf2(engine, spec);
  };

  // reports[c][r]: config c at fault rate r.
  std::vector<std::vector<WorkloadReport>> reports(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    for (const double rate : fault_rates) {
      reports[c].push_back(run_point(configs[c], rate));
    }
  }

  TablePrinter table(
      "Service under faults, " + std::to_string(num_queries) +
      " queries, Poisson @ 0.7mu, deadline 5x solo, 2 workers "
      "(goodput qps by per-quantum transient-fault rate)");
  const size_t top = fault_rates.size() - 1;
  std::vector<std::string> header = {"config"};
  for (const double rate : fault_rates) {
    header.push_back("goodput @ " + FormatDouble(rate, 2));
  }
  header.push_back("ok/fail/ddl/shed @ top");
  table.SetHeader(header);
  for (size_t c = 0; c < configs.size(); ++c) {
    std::vector<std::string> row = {configs[c].name};
    for (const WorkloadReport& r : reports[c]) {
      row.push_back(FormatDouble(r.sim_goodput_qps, 3));
    }
    const WorkloadReport& t = reports[c][top];
    row.push_back(std::to_string(t.queries_ok) + "/" +
                  std::to_string(t.queries_failed) + "/" +
                  std::to_string(t.queries_deadline_exceeded) + "/" +
                  std::to_string(t.queries_shed));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "service capacity mu (closed queue, fault-free): "
            << FormatDouble(mu_qps, 3) << " queries/sec simulated\n";
  std::cout << "goodput at top rate: no_retry "
            << FormatDouble(reports[0][top].sim_goodput_qps, 3) << ", retry "
            << FormatDouble(reports[1][top].sim_goodput_qps, 3)
            << ", retry_shed "
            << FormatDouble(reports[2][top].sim_goodput_qps, 3)
            << " queries/sec\n";
  if (verbose) {
    for (size_t c = 0; c < configs.size(); ++c) {
      for (size_t r = 0; r < fault_rates.size(); ++r) {
        PrintWorkloadReport(reports[c][r],
                            configs[c].name + " @ rate " +
                                FormatDouble(fault_rates[r], 2),
                            std::cout);
      }
    }
  }

  // Gate 1: at fault rate zero the three configs are bit-identical and
  // all-OK — retry policy and shedding are pure policy switches, inert
  // until a fault or a predicted miss actually occurs.
  for (size_t c = 0; c < configs.size(); ++c) {
    const WorkloadReport& r = reports[c][0];
    NIPO_CHECK(r.queries_ok == num_queries);
    NIPO_CHECK(r.sim_goodput_qps == reports[0][0].sim_goodput_qps);
    NIPO_CHECK(r.sim_makespan_msec == reports[0][0].sim_makespan_msec);
    NIPO_CHECK(r.total_retries == 0);
  }

  // Gate 2: graceful degradation — goodput stays positive at every
  // swept rate and is lower at the top rate than fault-free, for every
  // config.
  for (size_t c = 0; c < configs.size(); ++c) {
    for (const WorkloadReport& r : reports[c]) {
      NIPO_CHECK(r.sim_goodput_qps > 0);
    }
    NIPO_CHECK(reports[c].back().sim_goodput_qps <
               reports[c][0].sim_goodput_qps);
  }

  // Gate 3: at the moderate fault rate, retrying beats failing fast —
  // while capacity lasts, the recovered queries outweigh the re-runs
  // that recover them. (At the *top* rate this is no longer a given:
  // unshedded retry amplification can lose to fail-fast, which is
  // exactly the regime gate 4 measures.)
  const size_t mid = fault_rates.size() - 2;
  NIPO_CHECK(reports[1][mid].sim_goodput_qps >
             reports[0][mid].sim_goodput_qps);

  // Gate 4: at the top fault rate, shedding beats not shedding — early
  // rejection returns the capacity a doomed query would have burned
  // before its deadline kill. --quick (fewer, shorter queries, so a
  // handful of sheds at most) only requires shedding not to lose.
  const double shed_edge = quick ? 1.0 : 1.02;
  NIPO_CHECK(reports[2][top].sim_goodput_qps >=
             shed_edge * reports[1][top].sim_goodput_qps);

  // Gate 5: the hardest point — top fault rate, retry + shedding — is
  // bit-identical when rerun, in every outcome, attempt count, backoff
  // wait and latency figure.
  {
    const WorkloadReport& first = reports[2][top];
    const WorkloadReport rerun = run_point(configs[2], fault_rates[top]);
    NIPO_CHECK(rerun.sim_makespan_msec == first.sim_makespan_msec);
    NIPO_CHECK(rerun.sim_goodput_qps == first.sim_goodput_qps);
    NIPO_CHECK(rerun.total_retries == first.total_retries);
    NIPO_CHECK(rerun.total_backoff_msec == first.total_backoff_msec);
    for (size_t i = 0; i < num_queries; ++i) {
      NIPO_CHECK(rerun.queries[i].outcome == first.queries[i].outcome);
      NIPO_CHECK(rerun.queries[i].attempts == first.queries[i].attempts);
      NIPO_CHECK(rerun.queries[i].sim_backoff_msec ==
                 first.queries[i].sim_backoff_msec);
      NIPO_CHECK(rerun.queries[i].sim_latency_msec ==
                 first.queries[i].sim_latency_msec);
    }
  }

  if (write_json) {
    JsonValue out_configs = JsonValue::Array();
    for (size_t c = 0; c < configs.size(); ++c) {
      JsonValue points = JsonValue::Array();
      for (size_t r = 0; r < fault_rates.size(); ++r) {
        const WorkloadReport& rep = reports[c][r];
        points.Push(
            JsonValue::Object()
                .Add("fault_rate", fault_rates[r])
                .Add("goodput_qps", rep.sim_goodput_qps)
                .Add("queries_ok", static_cast<uint64_t>(rep.queries_ok))
                .Add("queries_failed",
                     static_cast<uint64_t>(rep.queries_failed))
                .Add("queries_deadline_exceeded",
                     static_cast<uint64_t>(rep.queries_deadline_exceeded))
                .Add("queries_shed", static_cast<uint64_t>(rep.queries_shed))
                .Add("total_retries", static_cast<uint64_t>(rep.total_retries))
                .Add("total_backoff_msec", rep.total_backoff_msec)
                .Add("p99_latency_msec", rep.latency.p99_msec));
      }
      out_configs.Push(
          JsonValue::Object()
              .Add("name", configs[c].name)
              .Add("retry", configs[c].retry)
              .Add("shed", configs[c].shed)
              .Add("wall_msec", reports[c][0].wall_msec)
              .Add("sim_goodput_qps", reports[c][0].sim_goodput_qps)
              .Add("goodput_at_top_rate_qps",
                   reports[c].back().sim_goodput_qps)
              .Add("points", points));
    }
    WriteJsonArtifact(
        json_path,
        JsonValue::Object()
            .Add("bench", "service_faults")
            .Add("quick", quick)
            .Add("host", HostMetadata())
            .Add("num_queries", static_cast<uint64_t>(num_queries))
            .Add("num_threads",
                 static_cast<uint64_t>(spec.options.num_threads))
            .Add("service_capacity_mu_qps", mu_qps)
            .Add("arrival_rate_qps", rate_qps)
            .Add("deadline_msec", deadline_msec)
            .Add("zero_fault_bit_identical", true)
            .Add("rerun_bit_identical", true)
            .Add("shed_vs_retry_goodput_ratio",
                 reports[2][top].sim_goodput_qps /
                     reports[1][top].sim_goodput_qps)
            .Add("configs", out_configs));
  }
  return 0;
}
