#include "ev/util/table.h"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace ev::util {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: row width does not match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto rule = [&] {
    out << '+';
    for (auto w : widths) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ') << " |";
    }
    out << '\n';
  };

  if (!title_.empty()) out << "== " << title_ << " ==\n";
  rule();
  emit(headers_);
  rule();
  for (const auto& row : rows_) emit(row);
  rule();
  return out.str();
}

void Table::print() const { std::cout << to_string() << std::flush; }

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string fmt_si(double value, int precision) {
  struct Scale {
    double factor;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {{1e9, " G"}, {1e6, " M"}, {1e3, " k"}, {1.0, " "},
                                      {1e-3, " m"}, {1e-6, " u"}, {1e-9, " n"}};
  const double mag = std::fabs(value);
  if (mag == 0.0) return fmt(0.0, precision);
  for (const auto& s : kScales) {
    if (mag >= s.factor) return fmt(value / s.factor, precision) + s.suffix;
  }
  return fmt(value / 1e-9, precision) + " n";
}

std::string fmt_pct(double ratio, int precision) {
  return fmt(ratio * 100.0, precision) + "%";
}

}  // namespace ev::util
