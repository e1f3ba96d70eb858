/// \file table.h
/// Console table rendering for the benchmark harness. Every experiment binary
/// prints its paper-shaped result rows through Table so output stays uniform
/// and machine-greppable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ev::util {

/// A simple column-aligned text table with a title, a header row, and data
/// rows of formatted cells.
class Table {
 public:
  /// Creates a table titled \p title with the given column headers.
  Table(std::string title, std::vector<std::string> headers);

  /// Appends a data row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders the table with aligned columns, box rules, and the title.
  [[nodiscard]] std::string to_string() const;
  /// Writes to_string() to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with \p precision fractional digits (fixed notation).
[[nodiscard]] std::string fmt(double value, int precision = 3);
/// Formats a double as engineering-style value with SI suffix (k, M, G, m, u, n).
[[nodiscard]] std::string fmt_si(double value, int precision = 3);
/// Formats a ratio as a percentage string with \p precision digits.
[[nodiscard]] std::string fmt_pct(double ratio, int precision = 1);

}  // namespace ev::util
