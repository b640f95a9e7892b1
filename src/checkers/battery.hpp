// The checker battery: the per-tree half of the Fig. 2 workflow. One call
// runs the enabled stages over one DTS in the fixed order
//   lint -> crossref -> graph -> syntactic (§IV-B) -> semantic (§IV-C),
// builds every checker from one BatteryOptions, and records each stage's
// scope "<stage>", span "stage.<stage>" and "stage.findings" counter
// (docs/observability.md). Every check path runs it: server::run_check,
// daemon session units, core::Pipeline units and `llhsc generate`.
//
// Findings come back per stage and unsorted; the order is each caller's
// policy, pinned by golden files: run_check concatenates the stages, a
// session unit sorts the whole unit, and the pipeline sorts each stage.
#pragma once

#include <cstdint>
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
  /// The device graph the graph stage checked: the caller's, or one built
  /// on demand. Null when the stage was off.
  std::shared_ptr<const graph::DeviceGraph> graph;
  /// Fail-fast ended the battery after a stage with errors.
  bool stopped = false;
  SemanticCounters counters;

  /// Every stage's findings, concatenated in stage order.
  [[nodiscard]] Findings all() const;
};

/// Runs the enabled stages over `tree`. `prebuilt` is an optional
/// device graph of `tree` (the daemon store's keyed artifact). With
/// `fail_fast`, a stage that reports an error ends the battery.
[[nodiscard]] BatteryResult run_battery(
    const dts::Tree& tree, const BatteryOptions& options,
    std::shared_ptr<const graph::DeviceGraph> prebuilt = nullptr,
    bool fail_fast = false);

}  // namespace llhsc::checkers
