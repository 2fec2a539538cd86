#pragma once

/// \file trace.h
/// In-memory span recorder of the benchmark's traced run.
///
/// Spans are recorded from the benchmark's own code around calls into the
/// library's public functions (the library itself is not instrumented).
/// Each span has a name, start, end, the span that encloses it, and a query
/// id shared by every span of one query. Spans stay in memory and are
/// written once, as Chrome trace-event JSON, when the run ends. A disabled
/// recorder never reads the clock.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace nipobench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     ///< index of the enclosing span; -1 at top level
  int64_t query = -1;  ///< id shared by one query's spans; -1 outside queries
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int Begin(const char* name, int64_t query = -1) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.query = query;
    span.start_ns = Now();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (the innermost open one); no-op for -1.
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    open_.pop_back();
  }

  int64_t NextQueryId() { return next_query_++; }

  /// Durations in seconds of every span named `name`, in record order.
  std::vector<double> Durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(Seconds(s));
    }
    return out;
  }

  double Total(std::string_view name) const {
    double total = 0;
    for (double d : Durations(name)) total += d;
    return total;
  }

  /// Self time per span name: each span's duration minus the part of it
  /// its direct children cover, summed per name (in first-seen order).
  std::vector<std::pair<std::string, double>> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = Seconds(spans_[i]);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= Seconds(s);
    }
    std::vector<std::pair<std::string, double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
        return e.first == spans_[i].name;
      });
      if (it == out.end()) {
        out.emplace_back(spans_[i].name, self[i]);
      } else {
        it->second += self[i];
      }
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps); chrome://tracing and Perfetto open it.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"query\":%lld}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.query));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static double Seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t next_query_ = 0;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t query = -1)
      : tracer_(tracer), id_(tracer->Begin(name, query)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace nipobench
