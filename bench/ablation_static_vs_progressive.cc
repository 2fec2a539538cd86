/// \file ablation_static_vs_progressive.cc
/// Quantifies the paper's Section 4.5 argument: how much run-time the
/// statistics-driven static plan loses to progressive optimization as
/// statistics staleness grows, on Q6 over lineitem with a shipdate
/// selectivity that the sampled prefix misjudges (the bulk-load weak
/// clustering means a prefix sample sees only early shipdates).

#include "bench_util.h"
#include "core/report.h"
#include "optimizer/static_optimizer.h"

using namespace nipo;
using namespace nipo::bench;

int main() {
  Engine engine = MakeQ6Engine(/*scale_factor=*/0.02, Layout::kClustered);
  const Table* li = engine.GetTable("lineitem").ValueOrDie();
  const size_t kVectorSize = 2'048;

  // Q6 intro variant with a mid-range shipdate bound: on date-clustered
  // data a prefix sample wildly misestimates its selectivity.
  const int32_t ship_value =
      ValueForSelectivity(*li, "l_shipdate", 0.3).ValueOrDie();
  QuerySpec query;
  query.table = "lineitem";
  query.ops = MakeQ6IntroPredicates(ship_value);
  query.payload_columns = Q6PayloadColumns();

  TablePrinter table(
      "Ablation: static plan quality vs statistics staleness (Q6, "
      "shipdate sel 30%)");
  table.SetHeader({"stats sample", "static order", "static ms",
                   "progressive ms", "gap %"});

  for (double sample_fraction : {0.01, 0.05, 0.25, 1.0}) {
    auto stats = TableStatistics::Build(
        *li, static_cast<size_t>(sample_fraction *
                                 static_cast<double>(li->num_rows())));
    NIPO_CHECK(stats.ok());
    const StaticPlan plan = PlanStatically(query.ops, stats.ValueOrDie());
    ExecOptions static_opt;
    static_opt.vector_size = kVectorSize;
    static_opt.order = plan.order;
    auto static_run = engine.Execute(query, static_opt);
    NIPO_CHECK(static_run.ok());

    ExecOptions prog_opt;
    prog_opt.mode = ExecMode::kProgressive;
    prog_opt.progressive.vector_size = kVectorSize;
    prog_opt.progressive.reopt_interval = 5;
    prog_opt.order = plan.order;
    auto prog = engine.Execute(query, prog_opt);
    NIPO_CHECK(prog.ok());

    const double static_ms = static_run.ValueOrDie().simulated_msec;
    const double prog_ms = prog.ValueOrDie().simulated_msec;
    table.AddRow({FormatDouble(sample_fraction * 100, 0) + "%",
                  FormatOrder(plan.order), FormatDouble(static_ms, 2),
                  FormatDouble(prog_ms, 2),
                  FormatDouble(100.0 * (static_ms - prog_ms) / static_ms,
                               1)});
  }
  table.Print(std::cout);
  std::cout
      << "Expected: with full statistics the static plan is competitive\n"
         "and progressive optimization adds little; with prefix samples\n"
         "the static order degrades while the progressive run, started\n"
         "from the same (bad) order, recovers most of the loss.\n";
  return 0;
}
