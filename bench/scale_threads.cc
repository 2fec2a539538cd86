/// \file scale_threads.cc
/// Thread-scaling sweep of the sharded parallel driver on TPC-H Q6
/// (DESIGN.md "Parallel execution"; methodology in EXPERIMENTS.md).
///
/// Runs full Q6 at 1, 2, 4, 8 and 16 worker threads and reports, per
/// thread count, the host wall-clock of the parallel region and the
/// simulated critical path (the slowest worker's machine time). The
/// simulated critical path scales deterministically with the shard sizes;
/// the wall clock additionally needs physical cores to drop (on a
/// single-core host it stays flat -- the simulation performs the same
/// total work). Results are verified bit-identical across all thread
/// counts before any timing is reported.

#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace nipo;
  using namespace nipo::bench;

  std::string json_path;
  const bool write_json =
      ParseJsonFlag(argc, argv, "BENCH_scale_threads.json", &json_path);

  // SF 0.1 = 600k lineitems: large enough that per-morsel work dwarfs
  // scheduling overhead, small enough for a laptop-budget sweep.
  Engine engine = MakeQ6Engine(/*scale_factor=*/0.1, Layout::kClustered);
  QuerySpec query;
  query.table = "lineitem";
  query.ops = MakeQ6FullPredicates();
  query.payload_columns = Q6PayloadColumns();
  const size_t kMorselSize = 4'096;

  ExecOptions solo;
  solo.vector_size = kMorselSize;
  auto reference = engine.Execute(query, solo);
  NIPO_CHECK(reference.ok());
  const ExecReport& ref = reference.ValueOrDie();

  TablePrinter table("Q6 thread scaling (baseline, morsel " +
                     std::to_string(kMorselSize) + ")");
  table.SetHeader({"threads", "wall msec", "wall speedup", "critical msec",
                   "critical speedup", "max steals"});
  double wall_1 = 0, critical_1 = 0;
  JsonValue sweep = JsonValue::Array();
  for (size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    ExecOptions options;
    options.driver = ExecDriver::kSharded;
    options.num_threads = threads;
    options.vector_size = kMorselSize;
    auto run = engine.Execute(query, options);
    NIPO_CHECK(run.ok());
    const ParallelDriveResult& drive =
        run.ValueOrDie().sharded_baseline->drive;
    // Correctness first: the morsel-index-ordered merge must reproduce
    // the single-threaded result bit-identically at every thread count.
    NIPO_CHECK(drive.merged.qualifying_tuples == ref.qualifying_tuples);
    NIPO_CHECK(drive.merged.aggregate == ref.aggregate);
    if (threads == 1) {
      NIPO_CHECK(drive.merged.total.cycles == ref.counters.cycles);
      wall_1 = drive.wall_msec;
      critical_1 = drive.merged.simulated_msec;
    }
    uint64_t max_steals = 0;
    for (const WorkerStats& w : drive.workers) {
      max_steals = std::max(max_steals, w.steals);
    }
    sweep.Push(JsonValue::Object()
                   .Add("threads", threads)
                   .Add("wall_msec", drive.wall_msec)
                   .Add("critical_msec", drive.merged.simulated_msec)
                   .Add("max_steals", max_steals));
    table.AddRow({std::to_string(threads), FormatDouble(drive.wall_msec, 1),
                  FormatDouble(wall_1 / drive.wall_msec, 2) + "x",
                  FormatDouble(drive.merged.simulated_msec, 3),
                  FormatDouble(critical_1 / drive.merged.simulated_msec, 2) +
                      "x",
                  std::to_string(max_steals)});
  }
  table.Print(std::cout);

  // Progressive under parallelism: same sweep with the shared coordinator
  // re-optimizing on merged morsel windows (reopt every 10 morsels).
  TablePrinter prog_table("Q6 thread scaling (progressive, reopt 10)");
  prog_table.SetHeader(
      {"threads", "wall msec", "critical msec", "reorders", "stale morsels"});
  for (size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    ExecOptions options;
    options.mode = ExecMode::kProgressive;
    options.driver = ExecDriver::kSharded;
    options.num_threads = threads;
    options.progressive.vector_size = kMorselSize;
    options.progressive.reopt_interval = 10;
    auto run = engine.Execute(query, options);
    NIPO_CHECK(run.ok());
    const ParallelProgressiveReport& report =
        *run.ValueOrDie().sharded_progressive;
    NIPO_CHECK(report.drive.merged.qualifying_tuples ==
               ref.qualifying_tuples);
    NIPO_CHECK(report.drive.merged.aggregate == ref.aggregate);
    prog_table.AddRow(
        {std::to_string(threads), FormatDouble(report.drive.wall_msec, 1),
         FormatDouble(report.drive.merged.simulated_msec, 3),
         std::to_string(report.changes.size()),
         std::to_string(report.stale_morsels)});
  }
  prog_table.Print(std::cout);
  std::cout << "note: wall-clock speedup requires physical cores; the\n"
               "simulated critical path shows the sharding itself.\n";

  if (write_json) {
    JsonValue root = JsonValue::Object();
    root.Add("bench", "scale_threads");
    root.Add("host", HostMetadata());
    root.Add("morsel_size", kMorselSize);
    root.Add("baseline_sweep", sweep);
    WriteJsonArtifact(json_path, root);
  }
  return 0;
}
