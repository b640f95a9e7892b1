// The one-shot `llhsc check` flow as a library call over in-memory sources,
// shared by the CLI and the llhscd daemon. Both callers funnel through
// run_check(), so for identical inputs the daemon's response carries the
// exact stdout/stderr bytes and exit code the one-shot CLI would produce —
// byte-identity by construction, not by parallel maintenance.
//
// With an ArtifactStore the parse and the checker verdict are reused
// content-addressed across requests; the *formatting* always runs fresh from
// the cached findings, so cached and uncached answers are indistinguishable
// on the wire. (One documented exception: the --stats stderr line replays
// the counters of the run that produced the cached verdict.)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checkers/battery.hpp"
#include "server/artifact_store.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

/// Mirrors the `llhsc check` option surface. The caller reads the file (the
/// daemon never touches the client's filesystem for the main source);
/// `path` only labels the report.
struct CheckRequest {
  std::string path;            // report label (the CLI's positional arg)
  std::string source;          // DTS text
  std::string base_directory;  // /include/ resolution root ("" = none)
  /// In-memory includes, shadowing base_directory (name -> content).
  std::vector<std::pair<std::string, std::string>> includes;

  std::string format = "text";  // text|json|sarif
  bool lint = true;
  bool crossref = true;
  bool graph = true;  // device-graph dataflow rules (checkers/graph/)
  bool syntax = true;
  bool semantics = true;
  bool quiet = false;
  bool stats = false;

  std::string backend = "builtin";  // builtin|z3
  std::string schemas_text;         // "" = builtin schema set
  std::string schemas_path;         // label for schema diagnostics
  std::string disable_rule;         // raw CLI comma list
  std::string rule_severity;        // raw CLI comma list
  uint64_t solver_timeout_ms = 0;
  bool plan = true;
  std::string cache_dir;
  /// Content of a --baseline file ("" = none). Applied after the verdict —
  /// and therefore after any cache hit — so baselines never key verdicts.
  std::string baseline_text;
};

/// What the request actually cost, for the daemon's per-request trace.
struct CheckTraceInfo {
  bool tree_cache_hit = false;
  bool check_cache_hit = false;
  uint64_t solver_checks = 0;
  uint64_t queries_issued = 0;
  uint64_t queries_pruned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_errors = 0;
  /// Findings removed by inline disable comments or the baseline.
  uint64_t suppressed = 0;
};

struct CheckOutcome {
  int exit_code = 0;       // 0 clean, 1 findings/rejected input, 2 usage/I-O
  std::string output;      // exact stdout bytes of the one-shot CLI
  std::string error_text;  // exact stderr bytes of the one-shot CLI
  size_t errors = 0;
  size_t warnings = 0;
  CheckTraceInfo trace;
};

/// Runs the full check flow. `store` may be null (the one-shot CLI path);
/// with a store, parse/verdict artifacts are reused content-addressed. A
/// limited `deadline` (the daemon's request deadline) clamps the solver
/// budget but not the verdict key.
[[nodiscard]] CheckOutcome run_check(const CheckRequest& request,
                                     ArtifactStore* store,
                                     const support::Deadline& deadline = {});

/// Returns the verdict key of everything besides the tree that can change a
/// verdict: `options` and the schema text they were loaded from. Then clamps
/// `options`' solver budget to what is left of `deadline` (never below 1
/// ms); the key keeps the requested budget, so repeats still hit the store.
[[nodiscard]] uint64_t key_then_clamp(checkers::BatteryOptions& options,
                                      std::string_view schemas_text,
                                      const support::Deadline& deadline);

}  // namespace llhsc::server
