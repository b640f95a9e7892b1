// SMT facade: one term language (logic::FormulaArena + logic::BvArena), two
// interchangeable backends.
//
//   - kBuiltin: Tseitin + bit-blasting onto the in-tree CDCL solver. Makes
//     llhsc self-contained, mirrors what Z3 does internally for QF_BV
//     ("the technique of bit-blasting is used by the Z3 theorem prover",
//     paper §IV-C).
//   - kZ3: the Z3 native C++ API — the backend the paper actually uses.
//   - kPortfolio: races kBuiltin and kZ3 on the same query; the first
//     definitive verdict (sat/unsat) wins and the loser is cancelled through
//     support::Deadline's cancel token. Findings are byte-identical to
//     either backend alone because witness terms are pinned at query
//     construction (checkers/semantic.cpp).
//
// The checkers never talk to a backend directly; differential tests assert
// both backends agree on every checker verdict.
//
// Scopes live here, once, for every backend: push() makes a fresh guard
// variable g, add(f) inside the scope asserts g => f, every check assumes
// the open guards (outer to inner) ahead of the caller's assumptions, and
// pop() closes the scope for good through the backend's retire(g). The
// query planner, the lift engine and the feature analyses all scope their
// queries this way, and enumerate() is the one projected all-SAT loop,
// built on it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logic/bitvector.hpp"
#include "logic/formula.hpp"
#include "support/deadline.hpp"

namespace llhsc::smt {

enum class CheckResult : uint8_t { kSat, kUnsat, kUnknown };

enum class Backend : uint8_t { kBuiltin, kZ3, kPortfolio };

[[nodiscard]] std::string_view to_string(Backend b);
/// "builtin" | "z3" | "portfolio" -> Backend. Any other name falls back to
/// kBuiltin and, when `warning` is given, appends the one-line
/// "warning: unknown backend '<name>', using builtin" to it.
[[nodiscard]] Backend backend_from_name(std::string_view name,
                                        std::string* warning = nullptr);
[[nodiscard]] std::string_view to_string(CheckResult r);

struct SolverStats {
  uint64_t checks = 0;
  uint64_t sat_results = 0;
  uint64_t unsat_results = 0;
  /// Checks that hit a deadline (or that the backend gave up on).
  uint64_t unknown_results = 0;
};

/// Backend implementation interface. Consumes formulas/terms built in the
/// arenas owned by the fronting Solver.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;
  /// Asserts `f` at the top level or, with a valid `guard` (the innermost
  /// open scope's), as guard => f. The guard travels separately so the
  /// builtin encoder can file what the assertion makes under its scope.
  virtual void add(logic::Formula f, logic::Formula guard) = 0;
  /// Bounds subsequent check() calls; an expired deadline yields kUnknown
  /// (builtin: polled in the CDCL search loop; z3: mapped to the solver's
  /// timeout parameter). A default Deadline removes the limit.
  virtual void set_deadline(const support::Deadline& deadline) = 0;
  /// Pre-encodes `assumptions` (and everything they reach) into backend-local
  /// form without solving. The builtin backend's Tseitin/bit-blasting step
  /// creates fresh variables in the *shared* term arenas, so portfolio racing
  /// calls prepare() on both backends sequentially before the race — the
  /// racing check() calls then hit memoised encodings and never touch shared
  /// state. Default no-op.
  virtual void prepare(std::span<const logic::Formula> assumptions) {
    (void)assumptions;
  }
  virtual CheckResult check(std::span<const logic::Formula> assumptions) = 0;
  [[nodiscard]] virtual bool model_bool(logic::BoolVar v) = 0;
  [[nodiscard]] virtual uint64_t model_bv(logic::BvTerm t) = 0;
  /// After a kUnsat check with assumptions: the subset of those assumptions
  /// that conflicts with the asserted formulas (not necessarily minimal).
  [[nodiscard]] virtual std::vector<logic::Formula> unsat_core() = 0;
  /// The one scope hook, called by Solver::pop(): the scope `guard` opened
  /// is closed for good and the guard is never used again. Backends make
  /// !guard hold and drop what depended on it while *keeping* everything
  /// independent of it. Z3 asserts !guard. The builtin backend needs the
  /// hook to know which scope closed: its encoder releases the variables
  /// the scope made, and sat::Solver::simplify() sweeps every clause that
  /// mentions them, so the next query pays only for its own size.
  virtual void retire(logic::Formula guard) = 0;
  /// Asynchronously aborts an in-flight check() from another thread; the
  /// interrupted check returns kUnknown. Default no-op (the builtin backend
  /// is cancelled through the Deadline token instead).
  virtual void interrupt() {}
};

/// The solver the rest of llhsc sees. Owns the term arenas and a backend.
/// Incremental: supports push/pop scopes and solving under assumptions,
/// matching the paper's "constraints can be added incrementally to the same
/// solver instance" extensibility claim (§VI).
class Solver {
 public:
  /// What enumerate() saw: the models it handed to the callback, and
  /// whether a further model exists beyond the cap.
  struct Enumeration {
    uint64_t models = 0;
    bool capped = false;
  };
  /// Receives one model's values of the projection, in projection order;
  /// the full model stays readable meanwhile. Returns false to stop.
  using ModelCallback = std::function<bool(const std::vector<bool>&)>;

  explicit Solver(Backend backend = Backend::kBuiltin);
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  [[nodiscard]] logic::FormulaArena& formulas() { return formulas_; }
  [[nodiscard]] logic::BvArena& bitvectors() { return bitvectors_; }
  [[nodiscard]] Backend backend() const { return backend_kind_; }

  /// Shorthand for declaring named atoms.
  logic::Formula bool_var(const std::string& name);
  logic::BvTerm bv_var(const std::string& name, uint32_t width);

  /// Asserts `f`; inside a scope, as innermost guard => f.
  void add(logic::Formula f);
  /// Opens a scope guarded by a fresh variable.
  void push();
  /// Closes the innermost scope for good: the backend makes !guard hold
  /// and sweeps what depended on it, keeping the guard-independent learned
  /// clauses for later checks.
  void pop();
  /// Wall-clock budget for each subsequent check; expired checks return
  /// kUnknown instead of blocking. Reset with a default Deadline.
  void set_deadline(const support::Deadline& deadline);
  CheckResult check();
  CheckResult check_assuming(std::span<const logic::Formula> assumptions);

  /// Projected all-SAT under `assumptions`, in a scope of its own: after
  /// each model it calls `on_model` with the values of `projection` (Boolean
  /// variable formulas), then blocks that assignment with one clause
  /// OR(v ? !x : x). At most `cap` models reach the callback; `capped` is
  /// set only when one more exists. Issues models + 1 checks unless the
  /// callback stops the loop.
  Enumeration enumerate(std::span<const logic::Formula> projection,
                        std::span<const logic::Formula> assumptions,
                        uint64_t cap, const ModelCallback& on_model);

  /// Model access after kSat.
  [[nodiscard]] bool model_bool(logic::BoolVar v);
  [[nodiscard]] bool model_bool(logic::Formula var_formula);
  [[nodiscard]] uint64_t model_bv(logic::BvTerm t);

  /// After a kUnsat check_assuming: the conflicting subset of the
  /// assumptions (an unsat core; not necessarily minimal). Scope guards
  /// are never part of it.
  [[nodiscard]] std::vector<logic::Formula> unsat_core();

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

 private:
  Backend backend_kind_;
  logic::FormulaArena formulas_;
  logic::BvArena bitvectors_;
  std::unique_ptr<SolverBackend> backend_;
  SolverStats stats_;
  /// Mirror of the backend's budget, so per-query spans can report it.
  support::Deadline deadline_;
  /// Guards of the open scopes, outer to inner.
  std::vector<logic::Formula> guards_;
};

/// Factory used by tests/benches to sweep both backends.
[[nodiscard]] std::vector<Backend> all_backends();

}  // namespace llhsc::smt
