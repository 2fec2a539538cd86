/// \file workload_quickstart.cc
/// Smallest end-to-end use of multi-query workload execution (DESIGN.md
/// "Workload execution"): queue six mixed queries over two shared tables,
/// run them through Engine::Execute(WorkloadSpec) on 4 simulated cores with
/// at most 3 in flight, print the aggregate report, and confirm that each
/// query is bit-identical to running it alone.

#include <cstdio>
#include <iostream>

#include "common/prng.h"
#include "core/engine.h"
#include "core/report.h"

int main() {
  using namespace nipo;

  // 1. Two shared tables; predicate selectivities under the queries
  //    below are ~0.9 (a), ~0.5 (b) and ~0.02 (c), ordered worst-first.
  auto make_table = [](const std::string& name, size_t rows, uint64_t seed) {
    Prng prng(seed);
    std::vector<int32_t> a(rows), b(rows), c(rows);
    std::vector<int64_t> payload(rows);
    for (size_t i = 0; i < rows; ++i) {
      a[i] = static_cast<int32_t>(prng.NextBounded(100));
      b[i] = static_cast<int32_t>(prng.NextBounded(100));
      c[i] = static_cast<int32_t>(prng.NextBounded(100));
      payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
    }
    auto t = std::make_unique<Table>(name);
    NIPO_CHECK(t->AddColumn("a", std::move(a)).ok());
    NIPO_CHECK(t->AddColumn("b", std::move(b)).ok());
    NIPO_CHECK(t->AddColumn("c", std::move(c)).ok());
    NIPO_CHECK(t->AddColumn("payload", std::move(payload)).ok());
    return t;
  };
  Engine engine;
  NIPO_CHECK(engine.RegisterTable(make_table("small", 200'000, 1)).ok());
  NIPO_CHECK(engine.RegisterTable(make_table("large", 500'000, 2)).ok());

  // 2. The workload: six queries over the two tables, alternating
  //    fixed-order baseline and progressive. Each gets a private
  //    simulated machine and (when progressive) its own optimizer.
  auto query_on = [](const std::string& table) {
    QuerySpec q;
    q.table = table;
    q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 90.0}),
             OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0}),
             OperatorSpec::Predicate({"c", CompareOp::kLt, 2.0})};
    q.payload_columns = {"payload"};
    return q;
  };
  WorkloadSpec spec;
  for (int i = 0; i < 6; ++i) {
    WorkloadQuery q;
    const bool on_large = i % 2 == 1;
    q.name = (on_large ? "large_q" : "small_q") + std::to_string(i);
    q.query = query_on(on_large ? "large" : "small");
    q.progressive = i >= 3;  // the back half re-optimizes while running
    q.config.vector_size = 16'384;
    q.config.reopt_interval = 3;
    spec.queries.push_back(std::move(q));
  }
  spec.options.num_threads = 4;     // simulated cores
  spec.options.max_concurrent = 3;  // admission control
  auto result = engine.Execute(spec);
  NIPO_CHECK(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  PrintWorkloadReport(report, "workload quickstart", std::cout);

  // 3. Private machines: any query of the workload is bit-identical to
  //    running it alone single-threaded — counters included, which is
  //    what lets per-query progressive optimization work unperturbed
  //    under concurrency.
  ExecOptions solo_options;
  solo_options.mode = ExecMode::kProgressive;
  solo_options.progressive = spec.queries[3].config;
  auto solo = engine.Execute(spec.queries[3].query, solo_options);
  NIPO_CHECK(solo.ok());
  const ExecReport& solo_report = solo.ValueOrDie();
  const WorkloadQueryReport& in_workload = report.queries[3];
  NIPO_CHECK(in_workload.drive.total == solo_report.counters);
  NIPO_CHECK(in_workload.drive.aggregate == solo_report.aggregate);
  NIPO_CHECK(in_workload.final_order == solo_report.final_order);
  std::printf(
      "query '%s' inside the workload == solo run: every counter identical\n",
      in_workload.name.c_str());
  std::printf(
      "workload finished %zu queries in %.2f simulated msec "
      "(%.2fx over one-at-a-time)\n",
      report.queries.size(), report.sim_makespan_msec,
      report.sim_serial_msec / report.sim_makespan_msec);
  return 0;
}
