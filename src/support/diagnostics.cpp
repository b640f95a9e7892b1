#include "support/diagnostics.hpp"

#include <ostream>
#include <sstream>

namespace llhsc::support {

std::string SourceLocation::to_string() const {
  if (!valid()) return "<unknown>";
  std::ostringstream os;
  os << file << ':' << line;
  if (column > 0) os << ':' << column;
  return os.str();
}

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::string Diagnostic::render() const {
  std::ostringstream os;
  if (location.valid()) os << location.to_string() << ": ";
  os << to_string(severity) << ": ";
  if (!code.empty()) os << '[' << code << "] ";
  os << message;
  return os.str();
}

void DiagnosticEngine::report(Severity severity, std::string code,
                              std::string message, SourceLocation location) {
  if (severity == Severity::kError) ++errors_;
  if (severity == Severity::kWarning) ++warnings_;
  diagnostics_.push_back(Diagnostic{severity, std::move(code),
                                    std::move(message), std::move(location)});
}

bool DiagnosticEngine::contains_code(std::string_view code) const {
  for (const auto& d : diagnostics_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string DiagnosticEngine::render() const {
  std::ostringstream os;
  for (const auto& d : diagnostics_) os << d.render() << '\n';
  return os.str();
}

void DiagnosticEngine::clear() {
  diagnostics_.clear();
  errors_ = 0;
  warnings_ = 0;
}

std::ostream& operator<<(std::ostream& os, const Diagnostic& d) {
  return os << d.render();
}

}  // namespace llhsc::support
