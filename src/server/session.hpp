// Incremental session re-checking over a DTS product line. A session
// request names a core DTS, a delta-module file, the products to derive
// (feature selections), and checker options; everything expensive funnels
// through the ArtifactStore:
//
//   core text      -> TreeArtifact        (include-aware content key)
//   deltas text    -> DeltaArtifact       (per-module fingerprints)
//   (core, deltas) -> ProductLineArtifact (one clone of the core)
//   (core, active-module fingerprints in application order)
//                  -> ComposedArtifact    (derived tree + printed DTS)
//   (composed, options) -> CheckArtifact  (checker verdict + counters)
//
// The composed key is built from the fingerprints of exactly the modules a
// product activates, in application order. Editing one delta module
// therefore re-derives only the products that activate it: every other
// product's composed key is unchanged and its cached verdict is reused.
// Editing the core — or any .dtsi it includes — changes the core's
// effective key, which flows into every product-line, composed, and check
// key, so the whole session re-derives, as it must.
// The request reports the store-counter delta so callers (and the PR's
// bench) can assert that incrementality — rebuilds, hits — rather than
// trust it.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "server/artifact_store.hpp"
#include "server/check_service.hpp"

namespace llhsc::server {

struct SessionProduct {
  std::string name;
  std::set<std::string> features;
};

struct SessionRequest {
  std::string core_source;
  std::string core_name;    // diagnostics label
  std::string deltas_source;
  std::string deltas_name;
  std::string model_source;  // feature model; required for allocation
  std::string model_name;
  std::string base_directory;  // /include/ resolution root ("" = none)
  std::vector<std::pair<std::string, std::string>> includes;

  std::vector<SessionProduct> products;
  /// Also derive and check the platform tree (union of all selections).
  bool check_platform = false;
  /// Run the resource-allocation check over all products (needs a model).
  bool check_allocation = false;
  /// Run the family-based lifted analysis over the WHOLE product line in
  /// one solver conversation (needs a model; docs/lifting.md). The verdict
  /// is one "*lifted*" unit covering every configuration, cached under the
  /// composed key of core + every delta module + model + options, so an
  /// edit to any of them re-runs exactly one family analysis.
  bool check_lifted = false;
  /// Cap on each lifted finding's configuration-class expansion.
  uint64_t lifted_max_configs = 8;
  std::vector<std::string> exclusive;  // exclusive feature names

  std::string backend = "builtin";
  bool lint = true;
  bool graph = true;  // device-graph rules, incl. the cross-unit analysis
  bool syntax = true;
  bool semantics = true;
  std::string schemas_text;  // "" = builtin schema set
  uint64_t solver_timeout_ms = 0;
  bool plan = true;
  std::string cache_dir;
};

struct SessionUnitResult {
  std::string name;  // product name, or "platform"
  bool composed_cache_hit = false;
  bool check_cache_hit = false;
  size_t errors = 0;
  size_t warnings = 0;
  std::string report;  // checkers::render() of this unit's findings
};

struct SessionOutcome {
  /// 0 all units clean, 1 findings or rejected input, 2 bad request.
  int exit_code = 0;
  std::string error_text;  // parse/derive diagnostics, request errors
  std::vector<SessionUnitResult> units;
  /// What this request actually cost: store counters after minus before.
  /// `derives` is the number of composed trees rebuilt, `unit_checks` the
  /// number of checker batteries executed — the incrementality evidence.
  StoreStats cost;
};

/// A limited `deadline` (the daemon's request deadline) clamps every unit's
/// solver budget but not the verdict keys.
[[nodiscard]] SessionOutcome run_session_check(
    const SessionRequest& request, ArtifactStore& store,
    const support::Deadline& deadline = {});

}  // namespace llhsc::server
