// Diagnostics engine shared by every llhsc front-end (DTS parser, schema
// loader, delta engine, checkers). A Diagnostic carries a severity, an
// optional source location, a stable code (for tests and tooling) and a
// human-readable message. The DiagnosticEngine accumulates diagnostics and
// renders them in a dtc-like `file:line:col: severity: message` format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/intern.hpp"

namespace llhsc::support {

/// A position inside a source file. Lines and columns are 1-based; a value
/// of 0 means "unknown" (e.g. diagnostics raised on synthesized trees).
/// The file name is an interned Atom: every token and every tree node carries
/// a location, and interning makes copying one a pointer-pair copy instead of
/// a std::string clone.
struct SourceLocation {
  Atom file;
  uint32_t line = 0;
  uint32_t column = 0;

  [[nodiscard]] bool valid() const { return !file.empty() && line > 0; }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SourceLocation&, const SourceLocation&) = default;
};

enum class Severity : uint8_t {
  kNote,
  kWarning,
  kError,
};

[[nodiscard]] std::string_view to_string(Severity s);

/// One reported problem. `code` is a short stable identifier such as
/// "dts-parse", "schema-required" or "sem-overlap" that tests key on.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;
  std::string message;
  SourceLocation location;

  [[nodiscard]] std::string render() const;
};

/// Accumulates diagnostics. Cheap to copy-construct empty, movable; the
/// typical pattern is one engine per pipeline run, passed by reference.
class DiagnosticEngine {
 public:
  void report(Severity severity, std::string code, std::string message,
              SourceLocation location = {});

  void note(std::string code, std::string message, SourceLocation loc = {}) {
    report(Severity::kNote, std::move(code), std::move(message), std::move(loc));
  }
  void warning(std::string code, std::string message, SourceLocation loc = {}) {
    report(Severity::kWarning, std::move(code), std::move(message), std::move(loc));
  }
  void error(std::string code, std::string message, SourceLocation loc = {}) {
    report(Severity::kError, std::move(code), std::move(message), std::move(loc));
  }

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  [[nodiscard]] size_t error_count() const { return errors_; }
  [[nodiscard]] size_t warning_count() const { return warnings_; }
  [[nodiscard]] bool has_errors() const { return errors_ > 0; }
  [[nodiscard]] bool contains_code(std::string_view code) const;

  /// Renders every diagnostic, one per line.
  [[nodiscard]] std::string render() const;
  void clear();

 private:
  std::vector<Diagnostic> diagnostics_;
  size_t errors_ = 0;
  size_t warnings_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Diagnostic& d);

}  // namespace llhsc::support
