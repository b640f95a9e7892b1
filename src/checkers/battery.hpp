// The checker battery: the per-tree half of the Fig. 2 workflow. One call
// runs the enabled stages over one DTS in the fixed order
//   lint -> crossref -> graph -> syntactic (§IV-B) -> semantic (§IV-C),
// builds every checker from one BatteryOptions, and records each stage's
// scope "<stage>", span "stage.<stage>" and "stage.findings" counter
// (docs/observability.md). Every check path runs it: server::run_check
// (`llhsc check`, daemon checks), session units (daemon sessions, `llhsc
// demo`) and `llhsc generate`.
//
// One check builds one crossref::AnalysisContext and at most one
// graph::DeviceGraph, each on first need and outside every stage's scope
// and span (their spans are "context.build" and "graph.build"): the
// crossref stage reads both, the graph stage the graph, and the lint,
// syntactic and semantic stages the context. A caller's graph source (the
// daemon store's keyed graph artifact) is asked for the graph on first
// need, with the check's one context.
//
// Findings come back per stage and unsorted; the order is the caller's:
// run_check concatenates the stages, and a session unit sorts the whole
// unit (docs/pipeline.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "checkers/crossref/rules.hpp"
#include "checkers/finding.hpp"
#include "checkers/graph/graph.hpp"
#include "checkers/semantic.hpp"
#include "dts/tree.hpp"
#include "schema/schema.hpp"
#include "smt/solver.hpp"

namespace llhsc::checkers {

struct BatteryOptions {
  smt::Backend backend = smt::Backend::kBuiltin;
  bool lint = true;
  bool crossref = true;
  /// Device-graph dataflow rules (checkers/graph/).
  bool graph = true;
  /// Runs only when `schemas` is set.
  bool syntax = true;
  bool semantics = true;
  /// Rule disables and severity overrides for the crossref and graph rules.
  crossref::CrossRefOptions rules{};
  /// Binding schemas of the syntactic stage (not owned). Not part of
  /// fingerprint(): callers key verdicts by the schema text instead.
  const schema::SchemaSet* schemas = nullptr;
  SemanticOptions semantic{};
};

/// Canonical hash of every option that can change a verdict (all fields
/// except `schemas`).
[[nodiscard]] uint64_t fingerprint(const BatteryOptions& options);

/// Solver and planner work of the semantic stage (the --stats line).
struct SemanticCounters {
  uint64_t solver_checks = 0;
  uint64_t queries_issued = 0;
  uint64_t queries_pruned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_errors = 0;
};

struct BatteryResult {
  /// One findings chunk per stage that ran, in stage order.
  std::vector<Findings> stages;
  SemanticCounters counters;

  /// Every stage's findings, concatenated in stage order.
  [[nodiscard]] Findings all() const;
};

/// Supplies the device graph of a check's tree from the check's analysis
/// context; it never returns null.
using GraphSource = std::function<std::shared_ptr<const graph::DeviceGraph>(
    const crossref::AnalysisContext&)>;

/// Runs the enabled stages over `tree`. `graph_source`, when set, is asked
/// once, on the first stage that needs the device graph (the daemon store
/// returns its keyed artifact of `tree`'s content); unset, the battery
/// builds the graph itself. The crossref and graph stages both read it.
[[nodiscard]] BatteryResult run_battery(const dts::Tree& tree,
                                        const BatteryOptions& options,
                                        const GraphSource& graph_source = {});

}  // namespace llhsc::checkers
