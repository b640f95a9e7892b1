// Pipeline observability: one StageTrace per (work unit, stage) pair that
// actually ran. Since PR 5 the rows are a *reduction* of the obs event
// stream (src/obs/summary.hpp) — the pipeline records stage spans and the
// solver/planner layers record counters, and this struct is rebuilt from
// them, merged in unit declaration order, so the trace is as deterministic
// as the findings (timings excepted — wall_ms is measured, everything else
// is exact). Rendered two ways: a JSON document with a top-level
// "schema_version": 1 (--trace-json, schema in docs/pipeline.md and
// docs/observability.md) and an aligned summary table (--verbose).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace llhsc::core {

struct StageTrace {
  /// VM name, "platform", or "*" for whole-run stages (allocation).
  std::string unit;
  /// "allocation" | "derive" | "lint" | "syntactic" | "semantic" | "emit".
  std::string stage;
  double wall_ms = 0.0;
  /// Solver check() calls issued by this stage (0 for solver-free stages).
  uint64_t solver_checks = 0;
  /// Findings this stage produced.
  size_t findings = 0;
  // Query-planner counters of the two planner-backed stages, syntactic and
  // semantic (zero elsewhere, and for semantic when planning is disabled).
  // queries_issued counts checks that reached the backend, queries_pruned
  // the checks a prefilter decided structurally (semantic only), cache_hits
  // the checks answered from the persistent query cache. Checks the
  // planner's in-memory memo answered are in none of the three.
  uint64_t queries_issued = 0;
  uint64_t queries_pruned = 0;
  uint64_t cache_hits = 0;
  /// 1 when this stage requested the persistent cache but could not use it
  /// (unwritable/non-directory --cache-dir); the stage ran uncached. Both
  /// planner-backed stages count it; only the semantic stage reports it as
  /// a finding.
  uint64_t cache_errors = 0;
};

struct PipelineTrace {
  /// Worker threads the run used (1 = serial).
  unsigned jobs = 1;
  /// End-to-end wall time of Pipeline::run.
  double total_ms = 0.0;
  /// False when fail_fast aborted the run before every stage executed; the
  /// recorded stages are still valid partial data.
  bool complete = true;
  std::vector<StageTrace> stages;

  [[nodiscard]] uint64_t total_solver_checks() const;
  [[nodiscard]] size_t total_findings() const;
  [[nodiscard]] uint64_t total_queries_issued() const;
  [[nodiscard]] uint64_t total_queries_pruned() const;
  [[nodiscard]] uint64_t total_cache_hits() const;
  [[nodiscard]] uint64_t total_cache_errors() const;

  /// The --trace-json document (stable key order, 3-decimal timings).
  [[nodiscard]] std::string to_json() const;
  /// The --verbose summary table.
  [[nodiscard]] std::string render_table() const;
};

}  // namespace llhsc::core
