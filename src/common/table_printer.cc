#include "common/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/logging.h"

/// \file table_printer.cc
/// Column-width measurement, alignment and border drawing for the aligned
/// text tables, plus FormatDouble's trailing-zero trim.

namespace nipo {

TablePrinter::TablePrinter(std::string title) : title_(std::move(title)) {}

void TablePrinter::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  NIPO_CHECK(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::AddNumericRow(const std::vector<double>& values,
                                 int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(FormatDouble(v, precision));
  AddRow(std::move(cells));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  out << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i == 0 ? "" : "  ");
      out << row[i];
      for (size_t pad = row[i].size(); pad < widths[i]; ++pad) out << ' ';
    }
    out << '\n';
  };
  emit_row(header_);
  std::string rule;
  for (size_t i = 0; i < widths.size(); ++i) {
    if (i) rule += "  ";
    rule.append(widths[i], '-');
  }
  out << rule << '\n';
  for (const auto& row : rows_) emit_row(row);
  out << '\n';
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

}  // namespace nipo
