// Query planner — the one obligation layer between the checkers and the
// solver. Two loops decide every solver-backed obligation here:
//   - the syntactic checker (§IV-B): one query per distinct obligation, a
//     schema constraint with the instance values its fact pins (the
//     checker's own verdict table answers every repeat before it gets
//     here), the instance fact plus the constraint;
//   - checkers::discharge, the one semantic obligation loop (§IV-C: region
//     disjointness, interrupt and clock uniqueness), through its decide
//     callback: the per-product semantic checker's, and the lifted family
//     engine's for each obligation *body* whose presence condition it
//     already found satisfiable on its own feature solver
//     (docs/lifting.md).
// Queries are self-contained and presence-free. One planner fronts one
// Solver and turns a stream of independent decision queries (each a small
// formula set, optionally with a witness term) into the cheapest sound
// sequence of backend calls:
//
//   1. The *callers* prune structurally decidable queries before they get
//      here (sweep-line interval prefilter for concrete regions, hash
//      buckets for interrupt and clock claims) and report them via
//      note_pruned(), so the trace still accounts for every query the
//      exhaustive path would have issued.
//   2. Each query that arrives is looked up in order:
//        memo   — every query this planner already decided, keyed by its
//                 full canonical text (smt::canonical_query_text), every
//                 outcome including kUnknown;
//        qc1    — the persistent QueryCache, when a cache directory is
//                 configured (never stores kUnknown);
//        solver — the query's formulas are added in a scope of their
//                 own (Solver::push, add f_i, check, pop): shared
//                 structure stays asserted and encoded once, and no
//                 closed query constrains a later one.
//      A structurally identical query — same shape and constants, any
//      variable names — is therefore decided at most once per planner and,
//      with a warm cache, not at all.
//
// Soundness of the division of labour: the planner never changes a
// query's verdict — pruning is the callers' responsibility (and covered by
// the planned-vs-exhaustive property tests), batching is equisatisfiable by
// construction (scope guards are fresh and never reused), and memo and cache
// entries store the witness, so findings are byte-identical across cold,
// batched, and warm-cache runs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

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
  /// Queries answered from the in-memory memo: a structurally identical
  /// query was already decided by this planner.
  uint64_t memo_hits = 0;
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

  /// `cache_dir` empty disables the persistent cache (the memo, batching
  /// and the pruning counters still apply).
  QueryPlanner(Solver& solver, const std::string& cache_dir);

  /// Decides the conjunction of `fs` as one batched query. The formulas
  /// must be self-contained: the planner asserts them only inside a scope
  /// of their own, so nothing added directly to the solver by the caller may be
  /// required for the verdict to be cache-portable.
  Outcome check(std::span<const logic::Formula> fs,
                logic::BvTerm witness_term = {});

  /// Records queries a prefilter discharged without building them.
  void note_pruned(uint64_t n);

  [[nodiscard]] const QueryPlanStats& stats() const { return stats_; }
  [[nodiscard]] bool cache_enabled() const {
    return cache_ != nullptr && cache_->enabled();
  }
  /// Why the requested cache is unusable ("" when fine or not requested).
  [[nodiscard]] const std::string& cache_error() const;
  /// The persistent cache this planner reads and writes (null when none was
  /// requested). Planners on one directory share one instance.
  [[nodiscard]] const QueryCache* cache() const { return cache_.get(); }

 private:
  Solver* solver_;
  std::shared_ptr<const QueryCache> cache_;  // QueryCache::open's instance
  /// Every outcome this planner decided, by canonical query text.
  std::unordered_map<std::string, Outcome> memo_;
  QueryPlanStats stats_;
};

}  // namespace llhsc::smt
