#pragma once

#include <iosfwd>
#include <string>

#include "core/engine.h"

/// \file report.h
/// Human-readable and CSV rendering of execution reports: counter
/// summaries, PEO traces and baseline/progressive comparisons. Keeps the
/// examples and downstream tools free of formatting boilerplate.

namespace nipo {

/// \brief Renders a counter set as an aligned two-column table.
void PrintCounters(const PmuCounters& counters, const std::string& title,
                   std::ostream& out);

/// \brief Renders the drive summary (rows, result, simulated time,
/// headline counters).
void PrintDriveResult(const DriveResult& drive, const std::string& title,
                      std::ostream& out);

/// \brief Renders a progressive run: drive summary plus the PEO trace
/// (one line per order or form change, with the old and new forms when
/// they differ and revert/exploration flags).
void PrintProgressiveReport(const ProgressiveReport& report,
                            const std::string& title, std::ostream& out);

/// \brief Renders a workload execution: one row per query (mode, result,
/// machine time, simulated queue/finish times, PEO changes; arrival /
/// queue-wait / latency columns in open-loop runs) plus the aggregate
/// schedule lines (makespan, throughput, latency and queue-wait tails,
/// adaptive-admission trajectory, fault census).
void PrintWorkloadReport(const WorkloadReport& report,
                         const std::string& title, std::ostream& out);

/// \brief One-line PEO rendering ("3,1,0,2,4").
std::string FormatOrder(const std::vector<size_t>& order);

/// \brief CSV with one row per counter (name,value); machine-readable
/// companion to PrintCounters.
void WriteCountersCsv(const PmuCounters& counters, std::ostream& out);

}  // namespace nipo
