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

void Report::sort() {
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              const auto ka = static_cast<std::uint8_t>(a.severity);
              const auto kb = static_cast<std::uint8_t>(b.severity);
              return std::tie(kb, a.rule_id, a.subject, a.message) <
                     std::tie(ka, b.rule_id, b.subject, b.message);
            });
}

const Diagnostic* Report::find(std::string_view rule_id,
                               std::string_view subject) const noexcept {
  for (const Diagnostic& d : diagnostics)
    if (d.rule_id == rule_id && d.subject == subject) return &d;
  return nullptr;
}

void write_report_json(const Report& report, std::ostream& out) {
  Report sorted = report;
  sorted.sort();
  out << "{\n";
  out << "  \"scenario\": \"" << util::json_escape(sorted.scenario) << "\",\n";
  out << "  \"summary\": {\"errors\": " << sorted.count(Severity::kError)
      << ", \"warnings\": " << sorted.count(Severity::kWarning)
      << ", \"info\": " << sorted.count(Severity::kInfo) << "},\n";
  out << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < sorted.diagnostics.size(); ++i) {
    const Diagnostic& d = sorted.diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"severity\": \"" << to_string(d.severity) << "\", \"rule\": \""
        << util::json_escape(d.rule_id) << "\", \"subject\": \""
        << util::json_escape(d.subject) << "\", \"message\": \""
        << util::json_escape(d.message) << "\", \"bound\": "
        << config::format_double(d.bound) << "}";
  }
  out << (sorted.diagnostics.empty() ? "]\n" : "\n  ]\n");
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
