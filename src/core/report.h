#pragma once

#include <iosfwd>
#include <string>

#include "core/engine.h"

/// \file report.h
/// Human-readable rendering of execution reports: drive summaries, PEO
/// traces and workload schedules. Keeps the examples and downstream
/// tools free of formatting boilerplate.

namespace nipo {

/// \brief Renders the drive summary (rows, result, simulated time,
/// headline counters).
void PrintDriveResult(const DriveResult& drive, const std::string& title,
                      std::ostream& out);

/// \brief Renders a progressive run: drive summary plus the PEO trace
/// (one line per order change, flagged when validation reverted it).
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

}  // namespace nipo
