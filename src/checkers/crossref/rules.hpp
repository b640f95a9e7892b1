// Cross-reference rule registry + checker. Each rule has a stable id in the
// style of dtc's -W names, a default severity, and a one-line summary (shown
// in the SARIF rules metadata and docs/rules.md). Rules run over the check's
// shared AnalysisContext and device graph, whose edges the reference rules
// read instead of decoding cells; per-rule enable/severity comes from
// CrossRefOptions so the CLI can map `--disable-rule a,b` /
// `--rule-severity a=warning` directly onto it.
//
// Rule catalog (see docs/rules.md for rationale and example fixes):
//   phandle-dangling              E  phandle reference with no owning node
//   phandle-duplicate             E  two nodes carry the same phandle value
//   interrupt-parent-dangling     E  interrupt-parent names a missing node
//   interrupt-cells-arity         E  interrupts length vs #interrupt-cells
//   interrupt-provider-missing-cells E  parent lacks #interrupt-cells
//   phandle-args-arity            E  clocks/gpios/... vs provider #*-cells
//   provider-missing-cells        E  referenced provider lacks its #*-cells
//   interrupt-tree-cycle          E  interrupt-parent chain loops
//   ranges-coverage               W  reg not covered by ancestor ranges
//   provider-orphan               W  #*-cells provider nothing references
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "checkers/crossref/context.hpp"
#include "checkers/finding.hpp"
#include "checkers/graph/graph.hpp"
#include "dts/tree.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::checkers::crossref {

struct RuleInfo {
  std::string_view id;
  FindingKind kind;
  FindingSeverity default_severity;
  std::string_view summary;
};

/// Every registered rule, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();
/// Lookup by id; nullptr for unknown ids.
[[nodiscard]] const RuleInfo* find_rule(std::string_view id);

/// Phandle+args consumer properties, the provider cells property that
/// fixes each entry's argument count ("clocks" -> "#clock-cells", ...) and
/// the kind of the device-graph edges they decode into. Suffix matching
/// covers the "*-gpios" family (cs-gpios, enable-gpios).
struct PhandleArgsSpec {
  std::string_view property;       // exact name, or suffix when is_suffix
  std::string_view cells_property; // provider-side #*-cells
  graph::EdgeKind kind;
  bool is_suffix = false;
};
[[nodiscard]] const std::vector<PhandleArgsSpec>& phandle_args_specs();

struct CrossRefOptions {
  /// Rule ids to skip entirely.
  std::set<std::string> disabled;
  /// Per-rule severity overrides (id -> severity).
  std::map<std::string, FindingSeverity> severity_overrides;

  [[nodiscard]] bool enabled(std::string_view id) const {
    return disabled.find(std::string(id)) == disabled.end();
  }
};

/// Parses the CLI's `--disable-rule a,b` / `--rule-severity a=warning,...`
/// comma lists, validating every id against the full rule_catalog() (the
/// graph rules included). Unknown ids append a diagnostic to `error_text`
/// that lists the valid ids and yield nullopt — callers exit 2. This is the
/// single validation point shared by the CLI and the check service, so the
/// two cannot drift.
[[nodiscard]] std::optional<CrossRefOptions> parse_rule_options(
    std::string_view disable_rule, std::string_view rule_severity,
    std::string& error_text);

/// Appends one finding of catalog rule `id` (a crossref or graph rule) at
/// `location`, honouring the per-rule enable and severity overrides of
/// `options`. Returns nullptr when the rule is disabled; otherwise the
/// stored finding, for extra fields. The one emitter behind both rule sets.
Finding* emit_finding(const CrossRefOptions& options, Findings& out,
                      std::string_view id, std::string subject,
                      std::string message,
                      const support::SourceLocation& location,
                      std::string delta, std::string property);

class CrossRefChecker {
 public:
  explicit CrossRefChecker(CrossRefOptions options = {})
      : options_(std::move(options)) {}

  /// Builds a context and a device graph, then runs every enabled rule.
  [[nodiscard]] Findings check(const dts::Tree& tree) const;
  /// Runs over a pre-built context, building the device graph from it.
  [[nodiscard]] Findings check(const AnalysisContext& ctx) const;
  /// Runs over the check's shared context and the device graph built from
  /// the same tree (checkers::run_battery passes both).
  [[nodiscard]] Findings check(const AnalysisContext& ctx,
                               const graph::DeviceGraph& g) const;

 private:
  CrossRefOptions options_;
};

}  // namespace llhsc::checkers::crossref
