// Persistent query-result cache for the query planner. A solver query is a
// set of formulas plus (optionally) one bit-vector term whose model value is
// the witness to report; the cache maps a *structural* canonicalisation of
// that query to the verdict and witness from an earlier run. Formula and
// term ids are per-process (hash-consing order depends on construction
// order), so keys are computed by re-serialising the query DAG with
// traversal-order sequence numbers and ignoring variable names — two
// processes that build the same query get the same key.
//
// Storage is one file per key under  <dir>/qc<version>-<backend>/ ; bumping
// the format version or switching backends invalidates the whole cache by
// construction (different subdirectory). Writes go through a temp file +
// rename, so concurrent units racing on the same key each land a complete
// entry and readers never observe a partial file. Lookups verify the stored
// canonical text against the probe to defeat fingerprint collisions. A cache
// holds no state past its open, so one instance (QueryCache::open) serves
// every planner and thread of a process.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "logic/bitvector.hpp"
#include "logic/formula.hpp"
#include "smt/solver.hpp"

namespace llhsc::smt {

/// Structural serialisation of one query: each formula on its own line,
/// shared subterms back-referenced by first-visit sequence number, variable
/// names dropped. The final line names the witness term (or "-").
[[nodiscard]] std::string canonical_query_text(
    const logic::FormulaArena& formulas, const logic::BvArena& bitvectors,
    std::span<const logic::Formula> fs, logic::BvTerm witness_term);

/// FNV-1a 64 over the canonical text; the cache's file name.
[[nodiscard]] uint64_t query_fingerprint(std::string_view canonical_text);

class QueryCache {
 public:
  struct Entry {
    CheckResult result = CheckResult::kUnknown;
    uint64_t witness = 0;
  };

  /// Opens (creating if needed) the versioned cache directory for `backend`
  /// under `dir`. On any filesystem failure — `dir` is a file, the
  /// directory cannot be created, or a probe write fails (read-only mount,
  /// permissions) — the cache disables itself and records why in error():
  /// caching is an optimisation, never a correctness dependency, but the
  /// failure must be *visible* (the semantic checker turns it into one
  /// warning finding) rather than a silent cold run every time.
  QueryCache(const std::string& dir, Backend backend);

  /// The process-wide cache for (`dir`, `backend`): the first successful
  /// open is shared by every later caller, so the directory creation and
  /// the probe write run once per directory per process. Each reuse
  /// revalidates with one stat; a directory removed since is opened (and
  /// probed) afresh. A failed open is never remembered: every caller gets
  /// its own disabled cache and error(), and a later call retries.
  [[nodiscard]] static std::shared_ptr<const QueryCache> open(
      const std::string& dir, Backend backend);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Why the cache is disabled ("" when enabled or never requested).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Returns the stored entry for this query, or nullopt on miss (including
  /// fingerprint collisions, unreadable entries, and a disabled cache).
  [[nodiscard]] std::optional<Entry> lookup(
      const std::string& canonical_text) const;

  /// Persists a decided query. kUnknown results (deadline expiry) are never
  /// stored — a later run with more budget must re-attempt them.
  void store(const std::string& canonical_text, const Entry& entry) const;

  [[nodiscard]] const std::string& directory() const { return version_dir_; }

 private:
  [[nodiscard]] std::optional<Entry> lookup_uncounted(
      const std::string& canonical_text) const;

  [[nodiscard]] std::string entry_path(uint64_t fingerprint) const;

  std::string version_dir_;
  bool enabled_ = false;
  std::string error_;
};

}  // namespace llhsc::smt
