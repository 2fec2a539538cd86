#include "core/engine.h"

#include <algorithm>
#include <numeric>

#include "cost/cache_model.h"

/// \file engine.cc
/// Engine facade implementation: the table registry, compilation of a
/// QuerySpec into a PipelineExecutor bound to a fresh simulated machine,
/// the unified Execute entry points (baseline or progressive, solo or
/// sharded-parallel, see DESIGN.md "Parallel execution"; and workloads),
/// and the AllOrders permutation enumeration used by the figure benches.

namespace nipo {

Engine::Engine(HwConfig hw) : hw_(hw) {}

Status Engine::RegisterTable(std::unique_ptr<Table> table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  const std::string name = table->name();
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Result<const Table*> Engine::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

Result<Table*> Engine::GetMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

Result<std::unique_ptr<PipelineExecutor>> Engine::CompileQuery(
    const QuerySpec& query, Pmu* pmu, InstrumentationMode mode) const {
  NIPO_ASSIGN_OR_RETURN(const Table* table, GetTable(query.table));
  return PipelineExecutor::Compile(*table, query.ops, query.payload_columns,
                                   pmu, mode);
}

namespace {

Status ApplyOrder(PipelineExecutor* exec,
                  const std::optional<std::vector<size_t>>& order) {
  if (!order.has_value()) return Status::OK();
  return exec->Reorder(*order);
}

/// Copies the mode-independent headline numbers of a solo drive into the
/// unified report.
void FillHeadline(const DriveResult& drive, ExecReport* report) {
  report->input_tuples = drive.input_tuples;
  report->qualifying_tuples = drive.qualifying_tuples;
  report->zone_skipped_tuples = drive.zone_skipped_tuples;
  report->aggregate = drive.aggregate;
  report->counters = drive.total;
  report->simulated_msec = drive.simulated_msec;
}

/// Progressive options are user input: reject what the optimizer would
/// abort on.
Status ValidateProgressive(const ProgressiveConfig& config) {
  if (config.vector_size == 0) {
    return Status::InvalidArgument("vector_size must be positive");
  }
  if (config.reopt_interval == 0) {
    return Status::InvalidArgument("reopt_interval must be positive");
  }
  return Status::OK();
}

}  // namespace

Result<ExecReport> Engine::Execute(const QuerySpec& query,
                                   const ExecOptions& options) const {
  const ExecDriver driver =
      options.driver != ExecDriver::kAuto ? options.driver
      : options.num_threads <= 1          ? ExecDriver::kSolo
                                          : ExecDriver::kSharded;
  ExecReport report;
  report.mode = options.mode;
  report.driver = driver;

  if (driver == ExecDriver::kSolo) {
    if (options.mode == ExecMode::kBaseline) {
      if (options.vector_size == 0) {
        return Status::InvalidArgument("vector_size must be positive");
      }
      Pmu pmu = NewMachine();
      NIPO_ASSIGN_OR_RETURN(
          std::unique_ptr<PipelineExecutor> exec,
          CompileQuery(query, &pmu, InstrumentationMode::kPmu));
      NIPO_RETURN_NOT_OK(ApplyOrder(exec.get(), options.order));
      BaselineReport sub;
      sub.order = exec->current_order();
      sub.drive = VectorDriver(exec.get(), options.vector_size).Run();
      // Runtime data errors (e.g. an FK value outside its dimension) latch
      // on the executor instead of aborting; solo drives surface them as a
      // failed call.
      NIPO_RETURN_NOT_OK(exec->error());
      FillHeadline(sub.drive, &report);
      report.final_order = sub.order;
      report.baseline = std::move(sub);
      return report;
    }
    NIPO_RETURN_NOT_OK(ValidateProgressive(options.progressive));
    Pmu pmu = NewMachine();
    NIPO_ASSIGN_OR_RETURN(
        std::unique_ptr<PipelineExecutor> exec,
        CompileQuery(query, &pmu, InstrumentationMode::kPmu));
    NIPO_RETURN_NOT_OK(ApplyOrder(exec.get(), options.order));
    ProgressiveOptimizer optimizer(exec.get(), options.progressive);
    ProgressiveReport sub = optimizer.Run();
    NIPO_RETURN_NOT_OK(exec->error());
    FillHeadline(sub.drive, &report);
    report.final_order = sub.final_order;
    report.progressive = std::move(sub);
    return report;
  }

  if (options.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  ParallelConfig pcfg;
  pcfg.num_threads = options.num_threads;
  pcfg.cancel = options.cancel;
  auto factory = [this, &query](Pmu* pmu) {
    return CompileQuery(query, pmu, InstrumentationMode::kPmu);
  };

  if (options.mode == ExecMode::kBaseline) {
    if (options.vector_size == 0) {
      return Status::InvalidArgument("vector_size must be positive");
    }
    pcfg.morsel_size = options.vector_size;
    ParallelDriver pdriver(NewMachine(), factory, pcfg);
    // Query and order errors propagate from the driver, which compiles
    // every worker executor and applies the order before any thread
    // starts.
    ParallelBaselineReport sub;
    NIPO_ASSIGN_OR_RETURN(sub.drive, pdriver.Run(options.order));
    // A runtime data error fails the call, like a solo drive;
    // cooperative cancellation instead returns the partial report with
    // drive.cancelled set.
    NIPO_RETURN_NOT_OK(sub.drive.error);
    if (options.order.has_value()) {
      sub.order = *options.order;
    } else {
      sub.order.resize(query.ops.size());
      std::iota(sub.order.begin(), sub.order.end(), size_t{0});
    }
    FillHeadline(sub.drive.merged, &report);
    report.final_order = sub.order;
    report.sharded_baseline = std::move(sub);
    return report;
  }

  NIPO_RETURN_NOT_OK(ValidateProgressive(options.progressive));
  // The coordinator's control pipeline: never executed, provides operator
  // metadata and carries the authoritative current order.
  Pmu control_pmu = NewMachine();
  NIPO_ASSIGN_OR_RETURN(
      std::unique_ptr<PipelineExecutor> control,
      CompileQuery(query, &control_pmu, InstrumentationMode::kPmu));
  NIPO_RETURN_NOT_OK(ApplyOrder(control.get(), options.order));
  ParallelProgressiveCoordinator coordinator(control.get(),
                                             options.progressive);
  pcfg.morsel_size = options.progressive.vector_size;  // the sampling unit
  ParallelDriver pdriver(NewMachine(), factory, pcfg);
  ParallelProgressiveReport sub;
  NIPO_ASSIGN_OR_RETURN(
      sub.drive, pdriver.Run(options.order,
                             [&coordinator](const MorselRecord& record) {
                               return coordinator.OnMorsel(record);
                             }));
  NIPO_RETURN_NOT_OK(sub.drive.error);
  coordinator.FillReport(&sub);
  FillHeadline(sub.drive.merged, &report);
  report.final_order = sub.final_order;
  report.sharded_progressive = std::move(sub);
  return report;
}

Result<TableEncodingStats> Engine::EncodeTable(const std::string& name,
                                               const EncodingOptions& options) {
  NIPO_ASSIGN_OR_RETURN(Table * table, GetMutableTable(name));
  return EncodeTableColumns(table, options);
}

namespace {

/// Fills a task's scheduling estimates from the cache cost model: every
/// touched column contributes its line-rounded bytes, split into
/// streamed (fact columns, scanned once) and reused (dimension tables,
/// re-referenced per probe), combined into the L3 capacity claim by
/// EstimateScanFootprint. The work score is the touched-value count — a
/// relative ordering for SRWF, not a cycle prediction.
void FillScheduleEstimates(const Table& table, const QuerySpec& query,
                           const HwConfig& hw, WorkloadTask* task) {
  ScanCacheModelConfig model;
  model.line_size = hw.l3.line_size;
  // A column referenced by several operators (e.g. a re-probed dimension)
  // occupies its bytes once, so count each (table, column) pair once.
  std::vector<std::pair<const Table*, std::string>> counted;
  auto column_bytes = [&](const Table& t, const std::string& name) {
    auto column = t.GetColumn(name);
    if (!column.ok()) return uint64_t{0};  // surfaces in validation later
    const std::pair<const Table*, std::string> key{&t, name};
    if (std::find(counted.begin(), counted.end(), key) != counted.end()) {
      return uint64_t{0};
    }
    counted.push_back(key);
    const ColumnCacheEstimate est = EstimateColumnCache(
        model, static_cast<double>(t.num_rows()),
        ScanColumnSpec{
            static_cast<uint32_t>(column.ValueOrDie()->value_width()), 1.0});
    return static_cast<uint64_t>(est.lines_total) * model.line_size;
  };
  const double rows = static_cast<double>(table.num_rows());
  uint64_t streamed = 0;
  uint64_t reuse = 0;
  double work = 0;
  for (const OperatorSpec& op : query.ops) {
    if (op.kind == OperatorSpec::Kind::kPredicate) {
      streamed += column_bytes(table, op.predicate.column);
      work += rows;
    } else {
      streamed += column_bytes(table, op.probe.fk_column);
      if (op.probe.dimension != nullptr) {
        reuse += column_bytes(*op.probe.dimension, op.probe.filter_column);
      }
      work += 2 * rows;  // FK read + dimension gather
    }
  }
  for (const std::string& payload : query.payload_columns) {
    streamed += column_bytes(table, payload);
    work += rows;
  }
  task->estimated_work = work;
  task->footprint_bytes =
      EstimateScanFootprint(streamed, reuse, hw.l3.capacity_bytes)
          .footprint_bytes;
}

}  // namespace

Result<WorkloadReport> Engine::Execute(const WorkloadSpec& spec) const {
  std::vector<WorkloadTask> tasks;
  tasks.reserve(spec.queries.size());
  for (const WorkloadQuery& q : spec.queries) {
    WorkloadTask task;
    task.name = q.name;
    task.progressive = q.progressive;
    task.config = q.config;
    task.initial_order = q.initial_order;
    task.priority = q.priority;
    task.sim_deadline_msec = q.sim_deadline_msec;
    task.sim_cancel_msec = q.sim_cancel_msec;
    auto table = GetTable(q.query.table);
    if (table.ok()) {
      FillScheduleEstimates(*table.ValueOrDie(), q.query, hw_, &task);
    }
    tasks.push_back(std::move(task));
  }
  WorkloadDriver driver(
      NewMachine(),
      [this, &spec](size_t index, Pmu* pmu) {
        return CompileQuery(spec.queries[index].query, pmu,
                            InstrumentationMode::kPmu);
      },
      spec.options);
  return driver.Run(tasks);
}

std::vector<std::vector<size_t>> AllOrders(size_t n) {
  NIPO_CHECK(n <= 8);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<std::vector<size_t>> all;
  do {
    all.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()));
  return all;
}

}  // namespace nipo
