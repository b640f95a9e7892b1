// A self-contained CDCL SAT solver in the MiniSat lineage. llhsc uses it as
// the builtin backend of the smt facade: feature-model analyses (§IV-A of the
// paper) and bit-blasted bit-vector constraints (§IV-C) both reduce to CNF
// solved here. Features:
//   - two-watched-literal unit propagation
//   - first-UIP conflict analysis with clause minimisation
//   - VSIDS (exponential decay) decision heuristic with phase saving
//   - Luby-sequence restarts
//   - learned-clause database reduction by activity
//   - solving under assumptions with final-conflict (unsat core) extraction
//   - all-SAT model enumeration over a projection set via blocking clauses
//
// The solver is built to serve many short scoped queries on one instance,
// each at the cost of its own size:
//   - Clause store. Every clause lives in one contiguous arena of literals
//     (a header word, an activity word, then the literals); a ClauseRef is
//     an offset into it. Adding a clause copies its literals into the arena
//     and allocates nothing else. Deleted clauses are garbage until
//     simplify() or reduce_db() finds garbage dominating, which compacts the
//     arena in one pass and relocates watchers and reasons.
//   - Decision heap. The VSIDS heap persists across solve() calls: new
//     variables enter it, backtracking re-inserts what it unassigns, and
//     variables fixed at level 0 leave it for good once the search meets
//     them.
//   - Released variables. release(v) hands a variable back. The next
//     simplify() deletes every clause that mentions it, unassigns it, takes
//     it out of the heap and lets new_var() reuse its index (lowest first).
//     The caller guarantees that dropping those clauses is sound; the CNF
//     encoder releases exactly what a closed scope created (logic/cnf.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "support/deadline.hpp"

namespace llhsc::sat {

/// Variables are dense 0-based indices; a Lit packs variable and sign.
using Var = int32_t;

class Lit {
 public:
  Lit() = default;
  Lit(Var v, bool negated) : code_(v * 2 + (negated ? 1 : 0)) {}

  [[nodiscard]] static Lit positive(Var v) { return Lit(v, false); }
  [[nodiscard]] static Lit negative(Var v) { return Lit(v, true); }
  [[nodiscard]] static Lit from_code(int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  [[nodiscard]] Var var() const { return code_ >> 1; }
  [[nodiscard]] bool negated() const { return (code_ & 1) != 0; }
  [[nodiscard]] Lit operator~() const { return from_code(code_ ^ 1); }
  [[nodiscard]] int32_t code() const { return code_; }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }
  friend bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

 private:
  int32_t code_ = -2;  // invalid until assigned
};

enum class Value : uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

[[nodiscard]] inline Value negate(Value v) {
  if (v == Value::kUndef) return Value::kUndef;
  return v == Value::kTrue ? Value::kFalse : Value::kTrue;
}

struct SolverStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t restarts = 0;
  uint64_t learned_literals = 0;
  uint64_t minimized_literals = 0;
  uint64_t reductions = 0;
  uint64_t simplifies = 0;
  /// Clauses removed by simplify() because the level-0 trail satisfies them
  /// (retired guards make their dependent clauses fall in this bucket) or
  /// because they mention a released variable.
  uint64_t simplify_removed = 0;
  /// Learned clauses still attached after the last simplify() — the ones
  /// retained across assumption-guard retirement.
  uint64_t retained_learned = 0;
};

/// Result of Solver::solve. kUnknown is only produced when a deadline was
/// set and expired before the search finished.
enum class SolveResult : uint8_t { kSat, kUnsat, kUnknown };

class Solver {
 public:
  Solver();

  /// Creates a fresh variable (reusing the lowest released index, if any)
  /// and returns its index.
  Var new_var();
  /// Variable indices in use or free for reuse: the high-water mark.
  [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }
  /// Variables not released: num_vars() minus the free indices.
  [[nodiscard]] int num_live_vars() const {
    return num_vars() - static_cast<int>(free_vars_.size());
  }
  /// Words in the clause arena, and those of them held by deleted clauses
  /// not yet compacted away (never more than the live ones after a sweep).
  [[nodiscard]] size_t arena_size() const { return arena_.size(); }
  [[nodiscard]] size_t arena_garbage() const { return wasted_; }

  /// Adds a clause (empty clause makes the instance trivially unsat). Returns
  /// false if the solver is already in an unsat state. The literals are
  /// copied; the 1-3 literal overloads build their span on the stack.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(Lit a) {
    const Lit clause[] = {a};
    return add_clause(std::span<const Lit>(clause));
  }
  bool add_clause(Lit a, Lit b) {
    const Lit clause[] = {a, b};
    return add_clause(std::span<const Lit>(clause));
  }
  bool add_clause(Lit a, Lit b, Lit c) {
    const Lit clause[] = {a, b, c};
    return add_clause(std::span<const Lit>(clause));
  }

  /// Solves the current formula under the given assumptions.
  SolveResult solve(const std::vector<Lit>& assumptions = {});

  /// Level-0 housekeeping: propagates pending units, then removes every
  /// clause the level-0 trail satisfies (detached and marked deleted).
  /// After retiring an assumption guard with add_clause(~g), this sweeps
  /// exactly the clauses that depended on the guard being assumable —
  /// guard-independent learned clauses survive and keep pruning later
  /// solve() calls. The same sweep deletes every clause that mentions a
  /// released variable and then frees those variables. Only the trail
  /// literals fixed since the last call have their reasons cleared, and a
  /// call with nothing new fixed or released sweeps nothing. Must be called
  /// at decision level 0.
  void simplify();

  /// Releases `v`: the next simplify() deletes every clause mentioning it
  /// and frees its index for new_var(). Sound only when that deletion is:
  /// the caller guarantees v is never used again and that the clauses
  /// mentioning it only define it or depend on a retired guard.
  void release(Var v);

  /// Bounds subsequent solve() calls: when the deadline expires mid-search,
  /// solve returns kUnknown instead of running on. A default-constructed
  /// Deadline removes the limit entirely (the poll is hoisted out of the
  /// search loop). The clock is read at most once every
  /// kDeadlinePollBudget/kConflictPollCost conflicts — or kDeadlinePollBudget
  /// decisions on conflict-free streaks — so solve() overshoots the budget by
  /// at most one poll window's worth of work. A Deadline carrying a
  /// support::CancelToken is observed at the same cadence, which is how
  /// portfolio racing stops a losing builtin search.
  void set_deadline(const support::Deadline& deadline) { deadline_ = deadline; }

  /// After kSat: model value of a variable (kUndef only for never-used vars).
  [[nodiscard]] Value model_value(Var v) const;
  [[nodiscard]] bool model_bool(Var v) const { return model_value(v) == Value::kTrue; }

  /// After kUnsat under assumptions: the subset of assumptions that together
  /// with the formula is unsatisfiable (a — not necessarily minimal — core).
  [[nodiscard]] const std::vector<Lit>& unsat_core() const { return core_; }

  /// Enumerates models projected onto `projection`; invokes `on_model` for
  /// each distinct projected assignment. Stops early when on_model returns
  /// false or `max_models` is reached. Returns the number of models found.
  /// Enumeration adds temporary blocking clauses that are removed afterwards.
  uint64_t enumerate_models(const std::vector<Var>& projection,
                            const std::function<bool(const std::vector<bool>&)>& on_model,
                            uint64_t max_models = UINT64_MAX);

  /// Convenience: counts models over a projection (caps at max_models).
  uint64_t count_models(const std::vector<Var>& projection,
                        uint64_t max_models = UINT64_MAX);

  [[nodiscard]] const SolverStats& stats() const { return stats_; }
  [[nodiscard]] bool okay() const { return ok_; }

 private:
  /// Offset of a clause's header word in arena_.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = UINT32_MAX;
  /// Arena layout of one clause: header (size << 2 | learned << 1 |
  /// deleted), activity (a float's bits), then `size` literals.
  static constexpr uint32_t kHeaderWords = 2;

  struct Watcher {
    ClauseRef clause;
    Lit blocker;
  };

  struct VarData {
    ClauseRef reason = kNoReason;
    int level = 0;
  };

  // -- clause arena --
  [[nodiscard]] uint32_t header(ClauseRef cr) const {
    return static_cast<uint32_t>(arena_[cr].code());
  }
  [[nodiscard]] uint32_t clause_size(ClauseRef cr) const { return header(cr) >> 2; }
  [[nodiscard]] bool learned(ClauseRef cr) const { return (header(cr) & 2u) != 0; }
  [[nodiscard]] bool deleted(ClauseRef cr) const { return (header(cr) & 1u) != 0; }
  [[nodiscard]] Lit* lits(ClauseRef cr) { return &arena_[cr + kHeaderWords]; }
  [[nodiscard]] const Lit* lits(ClauseRef cr) const { return &arena_[cr + kHeaderWords]; }
  [[nodiscard]] float activity(ClauseRef cr) const;
  void set_activity(ClauseRef cr, float a);
  [[nodiscard]] ClauseRef next_clause(ClauseRef cr) const {
    return cr + kHeaderWords + clause_size(cr);
  }
  ClauseRef alloc_clause(std::span<const Lit> clause, bool is_learned);
  /// Marks a clause deleted; its watch lists are purged by purge_watches().
  void delete_clause(ClauseRef cr);
  void purge_watches();
  /// A clause is locked while it is the reason of its first literal.
  [[nodiscard]] bool locked(ClauseRef cr) const;
  void compact_arena();

  // -- internal machinery --
  [[nodiscard]] Value value(Lit l) const {
    Value v = assigns_[static_cast<size_t>(l.var())];
    return l.negated() ? negate(v) : v;
  }
  [[nodiscard]] Value value(Var v) const { return assigns_[static_cast<size_t>(v)]; }
  [[nodiscard]] int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void attach_clause(ClauseRef cr);
  bool enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt, int& out_btlevel);
  bool lit_redundant(Lit l, uint32_t abstract_levels);
  void analyze_final(Lit p);
  void cancel_until(int level);
  Lit pick_branch_lit();
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  void var_bump_activity(Var v);
  void var_decay_activity();
  void clause_bump_activity(ClauseRef cr);
  void clause_decay_activity();
  void reduce_db();
  void free_released_vars();
  SolveResult search_loop();

  // order heap (binary max-heap on activity)
  void heap_insert(Var v);
  void heap_update(Var v);
  void heap_remove(Var v);
  Var heap_remove_max();
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  [[nodiscard]] bool heap_contains(Var v) const {
    return heap_index_[static_cast<size_t>(v)] >= 0;
  }

  static int64_t luby(int64_t i);

  bool ok_ = true;
  std::vector<Lit> arena_;
  /// Words of arena_ held by deleted clauses.
  size_t wasted_ = 0;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit code
  /// Watch lists that may hold watchers of deleted clauses.
  std::vector<uint8_t> watch_dirty_;
  std::vector<int32_t> dirty_watches_;
  std::vector<Value> assigns_;
  std::vector<VarData> var_data_;
  std::vector<bool> polarity_;  // saved phases
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  /// Level-0 trail prefix whose reasons simplify() has already cleared.
  size_t simplified_trail_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_index_;

  /// Variables released since the last simplify(), flagged in released_.
  std::vector<Var> pending_release_;
  std::vector<uint8_t> released_;
  /// Free indices for new_var(), highest first so the lowest is reused.
  std::vector<Var> free_vars_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> core_;
  /// Deadline polling is decimated: each conflict costs kConflictPollCost
  /// budget units, each decision costs 1, and the clock is read when
  /// kDeadlinePollBudget units are spent — every 128 conflicts on
  /// conflict-dense searches, every 8192 decisions on conflict-free ones.
  static constexpr int64_t kDeadlinePollBudget = 8192;
  static constexpr int64_t kConflictPollCost = 64;
  support::Deadline deadline_;

  // conflict-analysis and clause-building buffers
  std::vector<uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> add_buffer_;

  /// Live learned-clause count, maintained incrementally so the search loop
  /// never rescans the clause database to decide when to reduce.
  size_t num_learned_ = 0;
  /// Live problem-clause count (sizes the first learned-clause budget).
  size_t num_problem_ = 0;

  double var_inc_ = 1.0;
  double var_decay_ = 0.95;
  float clause_inc_ = 1.0f;
  float clause_decay_ = 0.999f;
  double max_learnts_ = 0.0;

  std::vector<Value> model_;
  SolverStats stats_;
};

}  // namespace llhsc::sat
