// Whole-graph dataflow rules over the DeviceGraph IR. Registered in the same
// catalog as the cross-reference rules (checkers/crossref/rules.hpp), so the
// CLI's --disable-rule / --rule-severity and SARIF rule metadata cover them
// uniformly:
//
//   graph-provider-cycle       E  provider dependencies (clocks, resets, ...)
//                                 loop — Tarjan SCC over the typed edges
//   graph-status-propagation   E  an enabled consumer transitively depends on
//                                 a disabled or missing provider — reverse
//                                 multi-source BFS from every taint source
//   graph-cells-arity          E  a typed edge violates the provider's
//                                 #*-cells arity contract (truncated tuple or
//                                 ragged interrupts), generalized per EdgeKind
//   graph-orphan-provider      W  a referenced provider only disabled
//                                 consumers demand — demand fixpoint from the
//                                 enabled sinks
//   graph-exclusive-provider   E  two units claim the same exclusive provider
//                                 (cross-unit; providers opt out with a
//                                 boolean `shared` property)
//
// Every finding carries the defect path in Finding::flow, rendered as SARIF
// codeFlows/relatedLocations by checkers/report.cpp.
#pragma once

#include <string>
#include <vector>

#include "checkers/crossref/rules.hpp"
#include "checkers/finding.hpp"
#include "checkers/graph/graph.hpp"

namespace llhsc::checkers::graph {

/// Per-rule enable/severity plumbing is shared with the crossref checker —
/// one --disable-rule flag drives both.
using RuleOptions = crossref::CrossRefOptions;

class GraphChecker {
 public:
  explicit GraphChecker(RuleOptions options = {})
      : options_(std::move(options)) {}

  /// Runs the four per-unit analyses (cycle, status, arity, orphan). Each
  /// analysis records an obs span; callers sort the result per their
  /// determinism contract (a session sorts each unit).
  [[nodiscard]] Findings check(const DeviceGraph& g) const;

 private:
  RuleOptions options_;
};

/// One unit's graph for the cross-unit analysis ("vm1", "platform", ...).
struct UnitGraph {
  std::string unit;
  const DeviceGraph* graph = nullptr;
};

/// graph-exclusive-provider: flags a provider path claimed (referenced by an
/// enabled consumer over a non-interrupt edge) in two or more units. Units
/// are compared in the given order; each later claimer yields one finding
/// naming the first. Providers carrying a boolean `shared` property are
/// exempt, and interrupt edges never claim (interrupt controllers are
/// virtualized per VM, not passed through).
[[nodiscard]] Findings check_exclusive_providers(
    const std::vector<UnitGraph>& units, const RuleOptions& options = {});

}  // namespace llhsc::checkers::graph
