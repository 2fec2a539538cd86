#include "core/report.h"

#include <ostream>

#include "common/table_printer.h"

/// \file report.cc
/// Rendering of execution reports: drive summaries, the progressive
/// PEO-change trace and the workload schedule, as aligned text.

namespace nipo {

void PrintDriveResult(const DriveResult& drive, const std::string& title,
                      std::ostream& out) {
  TablePrinter table(title);
  table.SetHeader({"metric", "value"});
  table.AddRow({"input tuples", std::to_string(drive.input_tuples)});
  table.AddRow({"qualifying tuples",
                std::to_string(drive.qualifying_tuples)});
  table.AddRow({"aggregate", FormatDouble(drive.aggregate, 2)});
  table.AddRow({"vectors", std::to_string(drive.num_vectors)});
  table.AddRow({"simulated msec", FormatDouble(drive.simulated_msec, 3)});
  table.AddRow({"cycles", std::to_string(drive.total.cycles)});
  table.AddRow({"branch mispredictions",
                std::to_string(drive.total.mispredictions)});
  table.AddRow({"L3 accesses", std::to_string(drive.total.l3_accesses)});
  table.Print(out);
}

std::string FormatOrder(const std::vector<size_t>& order) {
  std::string out;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(order[i]);
  }
  return out;
}

void PrintProgressiveReport(const ProgressiveReport& report,
                            const std::string& title, std::ostream& out) {
  PrintDriveResult(report.drive, title, out);
  TablePrinter trace(title + " - PEO trace");
  trace.SetHeader({"vector", "old order", "new order", "old cyc/tup",
                   "new cyc/tup", "margin", "flags"});
  for (const PeoChange& change : report.changes) {
    trace.AddRow({std::to_string(change.vector_index),
                  FormatOrder(change.old_order),
                  FormatOrder(change.new_order),
                  FormatDouble(change.predicted_old_cycles, 2),
                  FormatDouble(change.predicted_new_cycles, 2),
                  FormatDouble(change.margin, 3),
                  change.reverted ? "reverted" : ""});
  }
  trace.Print(out);
  out << "optimizations: " << report.num_optimizations
      << ", final order: " << FormatOrder(report.final_order) << "\n";
  if (!report.last_estimate.empty()) {
    out << "final selectivity estimate:";
    for (double s : report.last_estimate) {
      out << " " << FormatDouble(s, 3);
    }
    out << "\n";
  }
}

void PrintWorkloadReport(const WorkloadReport& report,
                         const std::string& title, std::ostream& out) {
  const bool open = report.arrival_kind != ArrivalKind::kClosed;
  // Fault-mode columns only appear when some query needed them.
  const bool faulty =
      report.queries_ok != report.queries.size() || report.total_retries > 0;
  TablePrinter queries(title + " - queries");
  std::vector<std::string> header = {"query",     "mode",       "qualifying",
                                     "machine msec", "sim start", "sim finish",
                                     "quanta",    "PEO changes"};
  if (faulty) {
    header.insert(header.end(), {"outcome", "attempts", "backoff"});
  }
  if (open) {
    header.insert(header.end(), {"arrival", "queue wait", "latency"});
  }
  if (report.contention) {
    header.insert(header.end(),
                  {"L3 evict suffered", "L3 evict caused", "L3 occ peak"});
  }
  queries.SetHeader(header);
  for (const WorkloadQueryReport& q : report.queries) {
    std::vector<std::string> row = {
        q.name, q.progressive ? "progressive" : "baseline",
        std::to_string(q.drive.qualifying_tuples),
        FormatDouble(q.drive.simulated_msec, 3),
        FormatDouble(q.sim_start_msec, 3), FormatDouble(q.sim_finish_msec, 3),
        std::to_string(q.quanta),
        q.progressive ? std::to_string(q.changes.size()) : "-"};
    if (faulty) {
      row.push_back(std::string(QueryOutcomeToString(q.outcome)));
      row.push_back(std::to_string(q.attempts));
      row.push_back(FormatDouble(q.sim_backoff_msec, 3));
    }
    if (open) {
      row.push_back(FormatDouble(q.sim_arrival_msec, 3));
      row.push_back(FormatDouble(q.sim_queue_wait_msec, 3));
      row.push_back(FormatDouble(q.sim_latency_msec, 3));
    }
    if (report.contention) {
      row.push_back(std::to_string(q.drive.total.l3_evictions_suffered));
      row.push_back(std::to_string(q.drive.total.l3_evictions_caused));
      row.push_back(std::to_string(q.shared_l3_peak_occupancy_lines));
    }
    queries.AddRow(row);
  }
  queries.Print(out);
  const double speedup = report.sim_makespan_msec > 0
                             ? report.sim_serial_msec / report.sim_makespan_msec
                             : 0.0;
  out << "queries: " << report.queries.size()
      << ", simulated cores: " << report.num_threads
      << ", max concurrent: " << report.max_concurrent
      << " (peak in flight: " << report.peak_in_flight << ")\n"
      << "policy: " << SchedulePolicyToString(report.policy)
      << ", contention: " << (report.contention ? "on" : "off");
  if (report.contention) {
    out << " (shared L3: " << report.shared_l3_capacity_lines
        << " lines, displaced: " << report.shared_l3_lines_displaced << ")";
  }
  out << "\n";
  if (open) {
    out << "arrivals: " << ArrivalKindToString(report.arrival_kind) << " at "
        << FormatDouble(report.arrival_rate_qps, 1) << " queries/sec\n";
  }
  if (report.adaptive_admission) {
    out << "adaptive admission: limit " << report.admission_final_limit
        << " (min seen: " << report.admission_min_limit
        << ", +" << report.admission_increases << "/-"
        << report.admission_decreases << " steps)\n";
  }
  if (faulty) {
    out << "outcomes: " << report.queries_ok << " ok, "
        << report.queries_failed << " failed, "
        << report.queries_deadline_exceeded << " deadline, "
        << report.queries_shed << " shed; retries: " << report.total_retries << " (backoff "
        << FormatDouble(report.total_backoff_msec, 3) << " msec)\n"
        << "goodput: " << FormatDouble(report.sim_goodput_qps, 1)
        << " ok-queries/sec\n";
  }
  out << "simulated makespan: " << FormatDouble(report.sim_makespan_msec, 3)
      << " msec (serial: " << FormatDouble(report.sim_serial_msec, 3)
      << " msec, speedup " << FormatDouble(speedup, 2) << "x), "
      << FormatDouble(report.sim_queries_per_sec, 1) << " queries/sec\n"
      << "latency msec (simulated): p50 "
      << FormatDouble(report.latency.p50_msec, 3) << ", p95 "
      << FormatDouble(report.latency.p95_msec, 3) << ", p99 "
      << FormatDouble(report.latency.p99_msec, 3) << ", max "
      << FormatDouble(report.latency.max_msec, 3) << "\n"
      << "queue wait msec (simulated): p50 "
      << FormatDouble(report.queue_wait.p50_msec, 3) << ", p95 "
      << FormatDouble(report.queue_wait.p95_msec, 3) << ", p99 "
      << FormatDouble(report.queue_wait.p99_msec, 3) << ", max "
      << FormatDouble(report.queue_wait.max_msec, 3) << "\n"
      << "host wall: " << FormatDouble(report.wall_msec, 3) << " msec, "
      << FormatDouble(report.wall_queries_per_sec, 1)
      << " queries/sec (not simulated)\n";
}

}  // namespace nipo
