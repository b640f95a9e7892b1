// The aggregated-summary reduction over a raw event stream. This is the
// single source behind every numeric observability surface: the
// `--trace-json` and `--verbose` stage rows of `llhsc demo`, `check
// --stats`, and the daemon's per-check counters are all built from
// `reduce()` output (asserted by tests/obs/obs_test.cpp), so the CLI and
// the daemon cannot disagree by construction.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace llhsc::obs {

/// One row per span in category "stage" (name "stage.<x>"), in stream
/// order. Counter attribution assumes at most one stage span per
/// (unit, stage) pair within the reduced stream — true for a session run's
/// stream, where each unit records under its own name, and for a single
/// check request.
struct StageSummary {
  std::string unit;
  std::string stage;
  double wall_ms = 0.0;
  size_t findings = 0;          // "stage.findings" counters in this scope
  uint64_t solver_checks = 0;   // "solver.checks"
  uint64_t queries_issued = 0;  // "planner.queries_issued"
  uint64_t queries_pruned = 0;  // "planner.queries_pruned"
  uint64_t cache_hits = 0;      // "planner.cache_hits"
  uint64_t cache_errors = 0;    // "planner.cache_errors"
};

struct Summary {
  std::vector<StageSummary> stages;

  /// Stream-wide counter totals by name.
  std::map<std::string, int64_t, std::less<>> counters;

  /// Counter total restricted to events recorded under `scope`.
  [[nodiscard]] int64_t scoped(std::string_view scope,
                               std::string_view name) const;
  /// Stream-wide total for `name` (0 when never recorded).
  [[nodiscard]] int64_t counter(std::string_view name) const;

  /// (unit, scope, name) -> total; the finest attribution the reduction
  /// keeps. Exposed so tests can assert the reduction against the raw
  /// stream without re-implementing it.
  std::map<std::string, int64_t, std::less<>> scoped_counters;

  /// The internal attribution key ('\x1f'-joined, no ambiguity: unit and
  /// scope names never contain control bytes).
  [[nodiscard]] static std::string key(std::string_view unit,
                                       std::string_view scope,
                                       std::string_view name);
};

[[nodiscard]] Summary reduce(const std::vector<Event>& events);

/// Column totals of `rows` (unit and stage empty).
[[nodiscard]] StageSummary total(const std::vector<StageSummary>& rows);

/// The `--trace-json` document of a product-line run (schema_version 1,
/// docs/pipeline.md): stable key order, 3-decimal timings. `jobs` is the
/// run's resolved thread count and `total_ms` its wall time.
[[nodiscard]] std::string stages_json(const std::vector<StageSummary>& rows,
                                      unsigned jobs, double total_ms);
/// The `--verbose` table of the same rows.
[[nodiscard]] std::string stages_table(const std::vector<StageSummary>& rows,
                                       unsigned jobs, double total_ms);

}  // namespace llhsc::obs
