// Family-based (lifted) product-line checking: verify all 2^n variants of a
// DTS product line in one incremental feature-solver conversation instead
// of deriving and checking every product (docs/lifting.md).
//
// The engine decomposes the delta set into independent *components* (deltas
// whose footprints touch overlapping parts of the tree), enumerates each
// component's feature-reachable activation patterns by projected all-SAT,
// derives one small *slice* per pattern, and discharges every checker
// obligation (region disjointness, wrap/zero-size, interrupt and clock
// uniqueness) through the per-product checker's own loop,
// checkers::discharge, over one obligation set per slice. Each obligation
// is decided in two parts: its presence condition (the patterns'
// activation literals, no derivation failure) on the feature solver, which
// holds the feature-model axioms and the delta-activation biconditionals
// a_d <-> when_d(features); and, when that presence is satisfiable, its
// body through smt::QueryPlanner::check on a presence-free body solver,
// whose memo decides each distinct body once. Work is polynomial in components x
// patterns, not in 2^n products; the differential harness
// (lift/differential.hpp) proves the verdicts equal per-product
// enumeration.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "checkers/finding.hpp"
#include "delta/delta.hpp"
#include "feature/model.hpp"
#include "smt/solver.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::lift {

struct LiftOptions {
  smt::Backend backend = smt::Backend::kBuiltin;
  /// Address space width in bits of the region obligations, as
  /// checkers::SemanticOptions::address_bits for the per-product check.
  uint32_t address_bits = 64;
  /// Cap on the all-SAT expansion of each finding's violating configuration
  /// classes (the per-finding "which products are affected" summary).
  uint64_t max_configs = 8;
  /// Cap on activation patterns per component. A component needing more
  /// patterns than this is reported as a kEnumerationCapped error and the
  /// result is not ok — the engine never silently under-approximates.
  uint64_t max_patterns = 1024;
  /// Features lifted through the exclusivity rule: a feature in this list
  /// that is selected in *every* configuration of the family is reported
  /// (family-level analogue of the resource-exclusivity check).
  std::vector<std::string> exclusive_features;
};

/// One activation literal: delta `delta` is active (positive) or inactive.
/// Under a concrete selection S the literal holds iff
/// when_delta.evaluate(S) == positive — activation is purely `when`-driven.
struct DeltaLiteral {
  std::string delta;
  bool positive = true;
};

/// One lifted finding: the same Finding content the per-product checker
/// would emit, plus the symbolic condition under which it manifests.
struct LiftedFinding {
  checkers::Finding finding;
  /// Conjunction of activation literals; empty = every configuration.
  /// A configuration exhibits the finding iff all literals hold AND the
  /// configuration is not in any derivation-failure class.
  std::vector<DeltaLiteral> condition;
  /// Violating configurations, projected onto the features the condition
  /// depends on: "veth0 && !veth1 || ..." (classes sorted, " || "-joined),
  /// or "all configurations" when the condition is feature-independent.
  std::string config_summary;
  /// True when the all-SAT expansion hit max_configs before draining.
  bool config_summary_capped = false;
  /// One concrete witness configuration (selected feature names).
  std::set<std::string> sample_config;
};

struct LiftedResult {
  /// True when the whole family was analysed (no refusal, no pattern cap).
  bool ok = false;
  std::vector<LiftedFinding> findings;
  /// Conditions under which product derivation itself fails (each matches a
  /// kDeriveFailure finding). A configuration matching any class derives no
  /// tree, so check findings never apply to it.
  std::vector<std::vector<DeltaLiteral>> fail_classes;
  /// Engine shape, for benches and tests.
  uint64_t components = 0;
  uint64_t patterns = 0;
  uint64_t slices = 0;
  uint64_t obligations = 0;
  /// Checks on the feature solver plus checks on the body solver.
  uint64_t solver_checks = 0;
};

/// Checks the whole family in one feature-solver conversation. Structural problems
/// (delta ordering cycles, targets ambiguous somewhere in the family) are
/// reported through `diags` and yield ok = false.
[[nodiscard]] LiftedResult check_family(const delta::ProductLine& line,
                                        const feature::FeatureModel& model,
                                        const LiftOptions& opts,
                                        support::DiagnosticEngine& diags);

/// Flattens to plain Findings for the report/SARIF/suppression surfaces:
/// each finding's message gains a " [configs: ...]" annotation carrying the
/// symbolic summary (the structured fields stay byte-identical to the
/// per-product checker's).
[[nodiscard]] checkers::Findings flatten(const LiftedResult& result);

}  // namespace llhsc::lift
