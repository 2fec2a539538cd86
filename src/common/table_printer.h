#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// \file table_printer.h
/// Aligned text tables for the figure-reproduction benchmarks. Every
/// bench binary prints the series of its paper figure as one of these
/// tables so the output is directly comparable to the plot.

namespace nipo {

/// \brief Collects rows of string cells and renders them as an aligned,
/// human-readable table.
class TablePrinter {
 public:
  /// \param title Caption printed above the table (e.g. "Figure 12: ...").
  explicit TablePrinter(std::string title);

  /// Sets the column headers. Must be called before adding rows.
  void SetHeader(std::vector<std::string> header);

  /// Appends a row; the cell count must match the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience for numeric rows: formats doubles with `precision` digits.
  void AddNumericRow(const std::vector<double>& values, int precision = 3);

  /// Renders the aligned table to `out`.
  void Print(std::ostream& out) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// \brief Formats a double with `precision` significant decimals, trimming
/// trailing zeros ("3.140" -> "3.14", "2.000" -> "2").
std::string FormatDouble(double value, int precision = 3);

}  // namespace nipo
