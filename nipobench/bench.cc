#include "bench.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>

#include "storage/column_view.h"
#include "tpch/q6.h"
#include "tpch/tpch_gen.h"

/// \file bench.cc
/// Implementation of the shared benchmark pieces declared in bench.h.

namespace nipobench {

using namespace nipo;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Checks::Execution(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    Note("execution failed: " + what);
  }
}

void Checks::Gate(bool ok, const std::string& what) {
  if (!ok) {
    ++gates_failed_;
    Note("check failed: " + what);
  }
}

void Checks::Note(const std::string& what) {
  if (messages_.size() < 20) messages_.push_back(what);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

void AddCounters(const PmuCounters& c, Fingerprint* f) {
  f->insert(f->end(),
            {c.instructions, c.branches, c.branches_taken,
             c.branches_not_taken, c.mispredictions, c.taken_mispredictions,
             c.not_taken_mispredictions, c.l1_accesses, c.l1_misses,
             c.l2_accesses, c.l2_misses, c.l3_accesses, c.l3_misses,
             c.prefetch_requests, c.l3_evictions_caused,
             c.l3_evictions_suffered, c.cycles});
}

void AddReport(const ExecReport& r, Fingerprint* f) {
  f->push_back(r.qualifying_tuples);
  f->push_back(Bits(r.aggregate));
  AddCounters(r.counters, f);
  f->push_back(Bits(r.simulated_msec));
  f->insert(f->end(), r.final_order.begin(), r.final_order.end());
}

namespace {

/// Row-at-a-time evaluation of predicates and FK probes; also the
/// marginal selectivity of every operator.
Result<QueryDef> EvaluateWithProbes(const Table& fact, QueryDef def) {
  struct Op {
    ColumnView fact;
    ColumnView dim;  // unbound for predicates
    CompareOp op;
    double value;
  };
  std::vector<Op> ops;
  for (const OperatorSpec& spec : def.spec.ops) {
    Op op;
    if (spec.kind == OperatorSpec::Kind::kPredicate) {
      NIPO_ASSIGN_OR_RETURN(const ColumnBase* col,
                            fact.GetColumn(spec.predicate.column));
      NIPO_ASSIGN_OR_RETURN(op.fact, ColumnView::Bind(col));
      op.op = spec.predicate.op;
      op.value = spec.predicate.value;
    } else {
      NIPO_ASSIGN_OR_RETURN(const ColumnBase* fk,
                            fact.GetColumn(spec.probe.fk_column));
      NIPO_ASSIGN_OR_RETURN(op.fact, ColumnView::Bind(fk));
      NIPO_ASSIGN_OR_RETURN(const ColumnBase* dim,
                            spec.probe.dimension->GetColumn(
                                spec.probe.filter_column));
      NIPO_ASSIGN_OR_RETURN(op.dim, ColumnView::Bind(dim));
      op.op = spec.probe.op;
      op.value = spec.probe.value;
    }
    ops.push_back(op);
  }
  std::vector<ColumnView> payload;
  for (const std::string& name : def.spec.payload_columns) {
    NIPO_ASSIGN_OR_RETURN(const ColumnBase* col, fact.GetColumn(name));
    NIPO_ASSIGN_OR_RETURN(ColumnView view, ColumnView::Bind(col));
    payload.push_back(view);
  }
  std::vector<uint64_t> passed(ops.size(), 0);
  const size_t rows = fact.num_rows();
  for (size_t row = 0; row < rows; ++row) {
    bool all = true;
    for (size_t i = 0; i < ops.size(); ++i) {
      double v = ops[i].fact.ValueAsDouble(row);
      if (ops[i].dim.bound()) {
        const int64_t key = ops[i].fact.ValueAsInt64(row);
        if (key < 0 || static_cast<size_t>(key) >= ops[i].dim.size()) {
          return Status::InvalidArgument("FK value out of range in " +
                                         def.name);
        }
        v = ops[i].dim.ValueAsDouble(static_cast<size_t>(key));
      }
      if (EvaluateCompare(v, ops[i].op, ops[i].value)) {
        ++passed[i];
      } else {
        all = false;
      }
    }
    if (all) {
      ++def.ref_qualifying;
      double product = 1.0;
      for (const ColumnView& p : payload) product *= p.ValueAsDouble(row);
      def.ref_aggregate += product;
    }
  }
  std::vector<double> selectivity(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    selectivity[i] =
        static_cast<double>(passed[i]) / static_cast<double>(rows);
  }
  def.oracle_order.resize(ops.size());
  std::iota(def.oracle_order.begin(), def.oracle_order.end(), size_t{0});
  std::stable_sort(def.oracle_order.begin(), def.oracle_order.end(),
                   [&](size_t a, size_t b) {
                     return selectivity[a] < selectivity[b];
                   });
  return def;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The reference kernel (see kReferenceSeconds). It depends on nothing
/// under src/, so no change to the engine moves it. One run reads 32K
/// values of an 8 MB column, branches on a predicate over each, and books
/// every 64-byte line in an 8-way LRU cache of 32K lines with a hashed set
/// index, as the simulated machine does; the next run continues where the
/// last stopped, wrapping around the column.
class ReferenceKernel {
 public:
  ReferenceKernel()
      : column_(size_t{1} << 21),
        tags_(kSets * kWays, ~uint64_t{0}),
        stamps_(kSets * kWays, 0) {
    uint64_t x = 88172645463325252ull;
    for (int32_t& v : column_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<int32_t>(x % 1000);
    }
  }

  /// CPU seconds of the calling thread one run takes.
  double Run() {
    const double t0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    uint64_t hits = 0, qualifying = 0;
    int64_t sum = 0;
    for (size_t k = 0; k < kValuesPerRun; ++k) {
      if (position_ % kValuesPerLine == 0) {
        hits += Book(position_ / kValuesPerLine) ? 1 : 0;
      }
      const int32_t v = column_[position_];
      if (v < 500) {
        ++qualifying;
        sum += v;
      }
      position_ = (position_ + 1) & (column_.size() - 1);
    }
    sink_ = hits + qualifying + static_cast<uint64_t>(sum);
    return CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - t0;
  }

  /// Median time of three runs.
  double Sample() {
    double runs[] = {Run(), Run(), Run()};
    std::sort(std::begin(runs), std::end(runs));
    return runs[1];
  }

 private:
  static constexpr size_t kSets = 4096;
  static constexpr size_t kWays = 8;
  static constexpr size_t kValuesPerRun = 32768;
  static constexpr size_t kValuesPerLine = 64 / sizeof(int32_t);

  /// Looks the line up; on a miss installs it over the LRU way.
  bool Book(uint64_t line) {
    uint64_t z = line + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    uint64_t* tags = &tags_[(z & (kSets - 1)) * kWays];
    uint32_t* stamps = &stamps_[(z & (kSets - 1)) * kWays];
    size_t victim = 0;
    for (size_t w = 0; w < kWays; ++w) {
      if (tags[w] == line) {
        stamps[w] = ++tick_;
        return true;
      }
      if (stamps[w] < stamps[victim]) victim = w;
    }
    tags[victim] = line;
    stamps[victim] = ++tick_;
    return false;
  }

  std::vector<int32_t> column_;
  std::vector<uint64_t> tags_;
  std::vector<uint32_t> stamps_;
  uint32_t tick_ = 0;
  size_t position_ = 0;
  volatile uint64_t sink_ = 0;
};

/// One kernel per thread that may sample, and the samples so far.
struct Reference {
  static constexpr size_t kMaxSamples = size_t{1} << 16;

  Reference() : kernels(kMaxThreads) { samples.reserve(kMaxSamples); }

  std::vector<ReferenceKernel> kernels;
  /// Reserved up front: recording never allocates between executions.
  std::vector<double> samples;
};

Reference& TheReference() {
  static Reference reference;
  return reference;
}

/// kReferenceSeconds times the mean speed of `threads` kernels sampled at
/// once, each on its own thread.
double ReferenceScale(size_t threads) {
  Reference& reference = TheReference();
  threads = std::clamp<size_t>(threads, 1, kMaxThreads);
  double seconds[kMaxThreads] = {};
  std::thread helpers[kMaxThreads];
  for (size_t t = 1; t < threads; ++t) {
    helpers[t] = std::thread(
        [&seconds, &reference, t] { seconds[t] = reference.kernels[t].Sample(); });
  }
  seconds[0] = reference.kernels[0].Sample();
  double speed = 0;  // mean kernel runs per second over the threads
  for (size_t t = 0; t < threads; ++t) {
    if (t > 0) helpers[t].join();
    speed += 1.0 / seconds[t] / static_cast<double>(threads);
  }
  if (reference.samples.size() < Reference::kMaxSamples) {
    reference.samples.push_back(1.0 / speed);
  }
  return kReferenceSeconds * speed;
}

}  // namespace

void PrepareReference() { TheReference(); }

ReferenceTimer::ReferenceTimer(size_t threads)
    : scale_(ReferenceScale(threads)),
      cpu0_(CpuSeconds(CLOCK_PROCESS_CPUTIME_ID)) {}

double ReferenceTimer::Seconds() const {
  return (CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0_) * scale_;
}

double ReferenceKernelSeconds() { return Median(TheReference().samples); }

Result<QueryDef> DefineQuery(const Engine& engine, std::string name,
                             QuerySpec spec) {
  NIPO_ASSIGN_OR_RETURN(const Table* fact, engine.GetTable(spec.table));
  QueryDef def;
  def.name = std::move(name);
  def.spec = std::move(spec);
  const bool predicates_only = std::all_of(
      def.spec.ops.begin(), def.spec.ops.end(), [](const OperatorSpec& op) {
        return op.kind == OperatorSpec::Kind::kPredicate;
      });
  if (!predicates_only) return EvaluateWithProbes(*fact, std::move(def));
  if (def.spec.payload_columns != Q6PayloadColumns()) {
    return Status::InvalidArgument("scan queries aggregate the Q6 payload");
  }
  NIPO_ASSIGN_OR_RETURN(Q6Reference ref,
                        ComputeQ6Reference(*fact, def.spec.ops));
  def.ref_qualifying = ref.qualifying;
  def.ref_aggregate = ref.revenue;
  std::vector<double> selectivity;
  for (const OperatorSpec& op : def.spec.ops) {
    NIPO_ASSIGN_OR_RETURN(
        double s, MeasureSelectivity(*fact, op.predicate.column,
                                     op.predicate.op, op.predicate.value));
    selectivity.push_back(s);
  }
  def.oracle_order.resize(selectivity.size());
  std::iota(def.oracle_order.begin(), def.oracle_order.end(), size_t{0});
  std::stable_sort(def.oracle_order.begin(), def.oracle_order.end(),
                   [&](size_t a, size_t b) {
                     return selectivity[a] < selectivity[b];
                   });
  return def;
}

Result<double> ColumnMedian(const Table& table, const std::string& column) {
  NIPO_ASSIGN_OR_RETURN(const ColumnBase* col, table.GetColumn(column));
  NIPO_ASSIGN_OR_RETURN(ColumnView view, ColumnView::Bind(col));
  if (view.size() == 0) return Status::InvalidArgument("empty " + column);
  std::vector<double> values(view.size());
  for (size_t row = 0; row < values.size(); ++row) {
    values[row] = view.ValueAsDouble(row);
  }
  return Median(std::move(values));
}

bool MatchesReference(const QueryDef& q, uint64_t qualifying,
                      double aggregate) {
  return qualifying == q.ref_qualifying &&
         std::abs(aggregate - q.ref_aggregate) <=
             1e-9 * std::max(1.0, std::abs(q.ref_aggregate));
}

ExecOptions SoloOptions(ExecMode mode, const std::vector<size_t>& order,
                        size_t vector_size, size_t reopt_interval) {
  ExecOptions options;
  options.mode = mode;
  options.driver = ExecDriver::kSolo;
  options.vector_size = vector_size;
  options.progressive.vector_size = vector_size;
  options.progressive.reopt_interval = reopt_interval;
  if (!order.empty()) options.order = order;
  return options;
}

Result<ExecReport> ReplaySolo(const Engine& engine, const QuerySpec& query,
                              const ExecOptions& options, Tracer* tracer) {
  const int64_t qid = tracer->NextQueryId();
  ScopedSpan query_span(tracer, kSpanQuery, qid);
  NIPO_ASSIGN_OR_RETURN(const Table* table, engine.GetTable(query.table));
  std::optional<Pmu> pmu;
  {
    ScopedSpan span(tracer, kSpanNewMachine, qid);
    pmu.emplace(engine.NewMachine());
  }
  std::unique_ptr<PipelineExecutor> exec;
  {
    ScopedSpan span(tracer, kSpanCompile, qid);
    NIPO_ASSIGN_OR_RETURN(
        exec, PipelineExecutor::Compile(*table, query.ops,
                                        query.payload_columns, &*pmu,
                                        InstrumentationMode::kPmu));
    if (options.order.has_value()) {
      NIPO_RETURN_NOT_OK(exec->Reorder(*options.order));
    }
  }
  const bool progressive = options.mode == ExecMode::kProgressive;
  const size_t vector_size =
      progressive ? options.progressive.vector_size : options.vector_size;
  if (vector_size == 0) return Status::InvalidArgument("vector_size is 0");
  std::optional<ProgressiveOptimizer> optimizer;
  if (progressive) {
    optimizer.emplace(exec.get(), options.progressive);
    optimizer->Begin();
  }
  DriveResult drive;
  const PmuCounters start = pmu->Read();
  const size_t rows = exec->num_rows();
  size_t index = 0;
  for (size_t begin = 0; begin < rows; begin += vector_size, ++index) {
    const size_t end = std::min(begin + vector_size, rows);
    PmuCounters before;
    if (progressive) {
      pmu->ChargeCycles(kCounterReadCycles);
      before = pmu->Read();
    }
    VectorResult r;
    {
      ScopedSpan span(tracer, kSpanExecuteRange, qid);
      r = exec->ExecuteRange(begin, end);
    }
    drive.input_tuples += r.input_tuples;
    drive.qualifying_tuples += r.qualifying_tuples;
    drive.zone_skipped_tuples += r.zone_skipped;
    drive.aggregate += r.aggregate;
    if (progressive) {
      pmu->ChargeCycles(kCounterReadCycles);
      VectorSample sample;
      sample.vector_index = index;
      sample.result = r;
      sample.counters = pmu->Read() - before;
      ScopedSpan span(tracer, kSpanOnVector, qid);
      optimizer->OnVector(sample);
    }
  }
  drive.num_vectors = index;
  drive.total = pmu->Read() - start;
  drive.simulated_msec = pmu->ToMilliseconds(drive.total);
  NIPO_RETURN_NOT_OK(exec->error());

  ExecReport report;
  report.mode = options.mode;
  report.driver = ExecDriver::kSolo;
  report.input_tuples = drive.input_tuples;
  report.qualifying_tuples = drive.qualifying_tuples;
  report.zone_skipped_tuples = drive.zone_skipped_tuples;
  report.aggregate = drive.aggregate;
  report.counters = drive.total;
  report.simulated_msec = drive.simulated_msec;
  if (progressive) {
    report.progressive = optimizer->Finish(drive);
    report.final_order = report.progressive->final_order;
  } else {
    report.baseline = BaselineReport{drive, exec->current_order()};
    report.final_order = report.baseline->order;
  }
  return report;
}

Result<ExecReport> RunSolo(const Engine& engine, const QuerySpec& query,
                           const ExecOptions& options, Tracer* tracer) {
  if (tracer->enabled()) return ReplaySolo(engine, query, options, tracer);
  return engine.Execute(query, options);
}

Result<std::unique_ptr<Engine>> BuildEngine(double scale_factor,
                                            bool dimensions, bool encode,
                                            uint64_t seed, Tracer* tracer) {
  auto engine =
      std::make_unique<Engine>(HwConfig::ScaledXeon(kCacheDivisor));
  TpchConfig config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  std::vector<std::unique_ptr<Table>> tables;
  {
    ScopedSpan span(tracer, kSpanGenerate);
    if (dimensions) {
      NIPO_ASSIGN_OR_RETURN(TpchDatabase db, GenerateTpch(config));
      tables.push_back(std::move(db.lineitem));
      tables.push_back(std::move(db.orders));
      tables.push_back(std::move(db.part));
    } else {
      NIPO_ASSIGN_OR_RETURN(std::unique_ptr<Table> lineitem,
                            GenerateLineitem(config));
      tables.push_back(std::move(lineitem));
    }
  }
  {
    ScopedSpan span(tracer, kSpanRegister);
    for (auto& table : tables) {
      NIPO_RETURN_NOT_OK(engine->RegisterTable(std::move(table)));
    }
  }
  if (encode) {
    ScopedSpan span(tracer, kSpanEncode);
    NIPO_RETURN_NOT_OK(engine->EncodeTable("lineitem").status());
  }
  return engine;
}

size_t NumThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min(kMaxThreads, cpus);
}

void LayerTally::AddExecution(const PmuCounters& c, uint64_t input,
                              uint64_t skipped) {
  counters += c;
  tuples += input;
  zone_skipped += skipped;
  ++queries;
}

void LayerTally::AddDecisions(size_t num_optimizations,
                              const std::vector<PeoChange>& peo_changes) {
  ++progressive_queries;
  optimizations += num_optimizations;
  changes += peo_changes.size();
  for (const PeoChange& change : peo_changes) {
    if (change.reverted) ++reverts;
  }
}

void LayerTally::Add(const ExecReport& r) {
  AddExecution(r.counters, r.input_tuples, r.zone_skipped_tuples);
  if (r.progressive.has_value()) {
    AddDecisions(r.progressive->num_optimizations, r.progressive->changes);
  }
  if (r.sharded_progressive.has_value()) {
    AddDecisions(r.sharded_progressive->num_optimizations,
                 r.sharded_progressive->changes);
  }
}

void SummarizeRuns(const std::vector<Run>& runs,
                   const std::vector<RunOutcome>& outcomes,
                   size_t num_queries, PassResult* out) {
  std::vector<double> oracle(num_queries,
                             std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].mode == ExecMode::kBaseline && outcomes[i].ok) {
      oracle[runs[i].query] =
          std::min(oracle[runs[i].query], outcomes[i].machine_ms);
    }
  }
  double latency_sum_ms = 0;
  size_t ok = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    const RunOutcome& o = outcomes[i];
    if (run.mode == ExecMode::kProgressive) {
      out->sim_progressive_ms += o.machine_ms;
      out->sim_oracle_ms += oracle[run.query];
    } else if (!run.oracle_only) {
      out->sim_baseline_ms += o.machine_ms;
    }
    out->latency_ms.push_back(o.latency_ms);
    latency_sum_ms += o.latency_ms;
    if (o.ok) ++ok;
  }
  out->goodput_qps =
      latency_sum_ms > 0 ? static_cast<double>(ok) / (latency_sum_ms / 1e3)
                         : 0;
}

}  // namespace nipobench
