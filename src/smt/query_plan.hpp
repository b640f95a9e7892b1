// Query planner — the one obligation layer between the checkers and the
// solver. The per-product semantic checker and the lifted family engine
// both decide their pairwise obligations (region disjointness, interrupt
// and clock uniqueness) here; a per-product check is the lifted check under
// the trivially-true presence condition. One planner fronts one Solver and
// turns a stream of independent decision queries (each a small formula
// set, optionally with a witness term and a presence condition) into the
// cheapest sound sequence of backend calls:
//
//   1. The *callers* prune structurally decidable queries before they get
//      here (sweep-line interval prefilter for concrete regions, hash
//      buckets for interrupt and clock claims) and report them via
//      note_pruned(), so the trace still accounts for every query the
//      exhaustive path would have issued.
//   2. Surviving queries are *batched* onto the one solver instance: each
//      query's formulas are guarded by a fresh assumption literal
//      (g => f_i), decided with check_assuming({g} + presence), and retired
//      with add(!g) — shared structure stays asserted and encoded once, and
//      no retired query constrains a later one. Both backends support
//      assumptions natively, so this costs one check() per query instead of
//      a push/encode/pop cycle.
//   3. Decided queries are recorded in a persistent QueryCache (when a
//      cache directory is configured); a later run that builds a
//      structurally identical query is answered without touching the
//      solver at all.
//
// Soundness of the division of labour: the planner never changes a
// query's verdict — pruning is the callers' responsibility (and covered by
// the planned-vs-exhaustive property tests), batching is equisatisfiable by
// construction (guards are fresh and never reused), and cache entries store
// the witness, so findings are byte-identical across cold, batched, and
// warm-cache runs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "smt/query_cache.hpp"
#include "smt/solver.hpp"

namespace llhsc::smt {

/// Per-planner counters surfaced through the pipeline trace.
struct QueryPlanStats {
  /// Queries that reached the backend (one check_assuming each).
  uint64_t queries_issued = 0;
  /// Queries decided structurally by a prefilter — never built.
  uint64_t queries_pruned = 0;
  /// Queries answered from the persistent cache.
  uint64_t cache_hits = 0;
  /// 1 when a cache directory was requested but could not be used (file in
  /// the way, unwritable, creation failure) — the run proceeded uncached.
  uint64_t cache_errors = 0;
};

class QueryPlanner {
 public:
  struct Outcome {
    CheckResult result = CheckResult::kUnknown;
    /// Model value of the witness term after kSat (0 otherwise).
    uint64_t witness = 0;
    /// The verdict came from the cache; the solver was not consulted.
    bool from_cache = false;
  };

  /// `cache_dir` empty disables the persistent cache (batching and the
  /// pruning counters still apply).
  QueryPlanner(Solver& solver, const std::string& cache_dir);

  /// Decides the conjunction of `fs` as one batched query. The formulas
  /// must be self-contained: the planner asserts them only under a fresh
  /// guard, so nothing added directly to the solver by the caller may be
  /// required for the verdict to be cache-portable.
  ///
  /// `presence` is the query's presence condition: literals assumed next to
  /// the guard, so the query is decided only in the models where they hold
  /// (the lifted engine passes a variant's activation literals). Its
  /// meaning rests on axioms the caller asserted in the solver, which the
  /// cache key does not see — precondition: only a cacheless planner
  /// (empty `cache_dir`) may be given presence literals.
  Outcome check(std::span<const logic::Formula> fs,
                logic::BvTerm witness_term = {},
                std::span<const logic::Formula> presence = {});

  /// Records queries a prefilter discharged without building them.
  void note_pruned(uint64_t n);

  [[nodiscard]] const QueryPlanStats& stats() const { return stats_; }
  [[nodiscard]] bool cache_enabled() const {
    return cache_ != nullptr && cache_->enabled();
  }
  /// Why the requested cache is unusable ("" when fine or not requested).
  [[nodiscard]] const std::string& cache_error() const;

 private:
  Solver* solver_;
  std::unique_ptr<QueryCache> cache_;
  QueryPlanStats stats_;
  uint64_t guard_counter_ = 0;
};

}  // namespace llhsc::smt
