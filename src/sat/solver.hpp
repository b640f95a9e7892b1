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
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
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
  /// (retired guards make their dependent clauses fall in this bucket).
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

  /// Creates a fresh variable and returns its index.
  Var new_var();
  [[nodiscard]] int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause (empty clause makes the instance trivially unsat). Returns
  /// false if the solver is already in an unsat state.
  bool add_clause(std::vector<Lit> lits);
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) {
    return add_clause(std::vector<Lit>{a, b, c});
  }

  /// Solves the current formula under the given assumptions.
  SolveResult solve(const std::vector<Lit>& assumptions = {});

  /// Level-0 housekeeping: propagates pending units, then removes every
  /// clause the level-0 trail satisfies (detached and marked deleted).
  /// After retiring an assumption guard with add_clause(~g), this sweeps
  /// exactly the clauses that depended on the guard being assumable —
  /// guard-independent learned clauses survive and keep pruning later
  /// solve() calls. Must be called at decision level 0.
  void simplify();

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
  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    bool learned = false;
    bool deleted = false;
  };
  using ClauseRef = int32_t;
  static constexpr ClauseRef kNoReason = -1;

  struct Watcher {
    ClauseRef clause;
    Lit blocker;
  };

  struct VarData {
    ClauseRef reason = kNoReason;
    int level = 0;
  };

  // -- internal machinery --
  [[nodiscard]] Value value(Lit l) const {
    Value v = assigns_[static_cast<size_t>(l.var())];
    return l.negated() ? negate(v) : v;
  }
  [[nodiscard]] Value value(Var v) const { return assigns_[static_cast<size_t>(v)]; }
  [[nodiscard]] int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void attach_clause(ClauseRef cr);
  void detach_clause(ClauseRef cr);
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
  void clause_bump_activity(Clause& c);
  void clause_decay_activity();
  void reduce_db();
  void rebuild_order_heap();
  SolveResult search_loop();

  // order heap (binary max-heap on activity)
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_remove_max();
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  [[nodiscard]] bool heap_contains(Var v) const {
    return heap_index_[static_cast<size_t>(v)] >= 0;
  }

  static int64_t luby(int64_t i);

  bool ok_ = true;
  std::vector<Clause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit code
  std::vector<Value> assigns_;
  std::vector<VarData> var_data_;
  std::vector<bool> polarity_;  // saved phases
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_index_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> core_;
  /// Deadline polling is decimated: each conflict costs kConflictPollCost
  /// budget units, each decision costs 1, and the clock is read when
  /// kDeadlinePollBudget units are spent — every 128 conflicts on
  /// conflict-dense searches, every 8192 decisions on conflict-free ones.
  static constexpr int64_t kDeadlinePollBudget = 8192;
  static constexpr int64_t kConflictPollCost = 64;
  support::Deadline deadline_;

  // conflict-analysis scratch
  std::vector<uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;

  /// Live learned-clause count, maintained incrementally so the search loop
  /// never rescans the clause database to decide when to reduce.
  size_t num_learned_ = 0;

  double var_inc_ = 1.0;
  double var_decay_ = 0.95;
  double clause_inc_ = 1.0;
  double clause_decay_ = 0.999;
  double max_learnts_ = 0.0;

  std::vector<Value> model_;
  SolverStats stats_;
};

}  // namespace llhsc::sat
