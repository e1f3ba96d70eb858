#include "ev/analysis/diagnostics.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

#include "ev/config/scenario.h"
#include "ev/util/json.h"

namespace ev::analysis {

std::string to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "info";
}

void Report::add(Severity severity, std::string rule_id, std::string subject,
                 std::string message, double bound) {
  diagnostics.push_back(Diagnostic{severity, std::move(rule_id), std::move(subject),
                                   std::move(message), bound});
}

std::size_t Report::count(Severity severity) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == severity) ++n;
  return n;
}

bool Report::has_errors() const noexcept { return count(Severity::kError) > 0; }

namespace {

/// Report order: errors first, then warnings, then info; ties by rule id,
/// subject, message.
bool report_order(const Diagnostic& a, const Diagnostic& b) {
  const auto ka = static_cast<std::uint8_t>(a.severity);
  const auto kb = static_cast<std::uint8_t>(b.severity);
  return std::tie(kb, a.rule_id, a.subject, a.message) <
         std::tie(ka, b.rule_id, b.subject, b.message);
}

}  // namespace

void Report::sort() { std::sort(diagnostics.begin(), diagnostics.end(), report_order); }

const Diagnostic* Report::find(std::string_view rule_id,
                               std::string_view subject) const noexcept {
  for (const Diagnostic& d : diagnostics)
    if (d.rule_id == rule_id && d.subject == subject) return &d;
  return nullptr;
}

void write_report_json(const Report& report, std::ostream& out) {
  // The same std::sort with the same comparator over the same input order
  // as Report::sort(), applied to pointers: the order is the one a sorted
  // copy would have, without copying a string.
  std::vector<const Diagnostic*> sorted;
  sorted.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) sorted.push_back(&d);
  std::sort(sorted.begin(), sorted.end(),
            [](const Diagnostic* a, const Diagnostic* b) { return report_order(*a, *b); });
  out << "{\n";
  out << "  \"scenario\": \"";
  util::write_json_escaped(out, report.scenario);
  out << "\",\n";
  out << "  \"summary\": {\"errors\": " << report.count(Severity::kError)
      << ", \"warnings\": " << report.count(Severity::kWarning)
      << ", \"info\": " << report.count(Severity::kInfo) << "},\n";
  out << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Diagnostic& d = *sorted[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"severity\": \"" << to_string(d.severity) << "\", \"rule\": \"";
    util::write_json_escaped(out, d.rule_id);
    out << "\", \"subject\": \"";
    util::write_json_escaped(out, d.subject);
    out << "\", \"message\": \"";
    util::write_json_escaped(out, d.message);
    out << "\", \"bound\": " << config::format_double(d.bound) << "}";
  }
  out << (sorted.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
}

std::string report_json(const Report& report) {
  std::ostringstream out;
  write_report_json(report, out);
  return out.str();
}

int exit_code_for(const Report& report) noexcept {
  if (report.has_errors()) return 1;
  if (report.count(Severity::kWarning) > 0) return 3;
  return 0;
}

}  // namespace ev::analysis
