// Tseitin transformation from a FormulaArena DAG to CNF clauses over
// sat::Solver literals. Because formulas are hash-consed, each distinct gate
// gets exactly one auxiliary variable regardless of how many times it is
// shared, keeping the CNF linear in the DAG size.
//
// Asserted formulas skip the gates at the top. Looking through negations
// and bit-vector atoms (their blasted form), a conjunction asserts each
// conjunct, and a disjunction (through nested disjunctions) becomes one
// clause over its leaves' literals. A guarded assertion g => f adds !g to
// each of those clauses: g => (a & b) is (!g | a) & (!g | b), so a witness
// pinned to a constant costs one binary clause per bit, and the query
// planner's guarded disjunctions and the lift engine's blocking clauses are
// single clauses.
//
// Scopes. The first guarded assertion under a guard opens that guard's
// scope. Every memo entry, gate and variable mapping the encoder makes
// while that scope is the innermost open one belongs to it, encodings of
// check-time assumptions included. retire(g) closes the scope for good: the
// encoder forgets what the scope made and releases those SAT variables and
// g's own, so sat::Solver::simplify() deletes every clause mentioning them
// (the scope's assertions, its gate definitions and what was learned from
// them) and reuses their indices. A gate's definition carries no guard: once
// the scope's assertions are gone nothing outside the scope mentions the
// gate, and a Tseitin definition of an otherwise unused variable can be
// dropped without changing any answer. Encodings made outside every scope
// are permanent.
#pragma once

#include <utility>
#include <vector>

#include "logic/bitvector.hpp"
#include "logic/formula.hpp"
#include "sat/solver.hpp"

namespace llhsc::logic {

/// Bridges one FormulaArena and one sat::Solver. Stateless between calls
/// except for memoisation and the open scopes; asserting the same formula
/// twice is idempotent at the clause level (the gate variables are reused).
/// When a BvArena is supplied, kBvAtom leaves are bit-blasted through it;
/// without one they are rejected (feature-model workloads are purely
/// propositional).
class CnfEncoder {
 public:
  CnfEncoder(const FormulaArena& arena, sat::Solver& solver,
             BvArena* bitvectors = nullptr)
      : arena_(&arena), solver_(&solver), bitvectors_(bitvectors) {}

  /// Returns the SAT literal equivalent to `f`, adding defining clauses.
  sat::Lit encode(Formula f);

  /// Asserts `f` as a top-level constraint or, with a valid `guard` (a
  /// variable formula), as guard => f in the scope that guard opens.
  void assert_formula(Formula f, Formula guard = Formula());

  /// Closes the scope `guard` opened, for good: forgets the scope's
  /// encodings, releases their SAT variables and the guard's, and
  /// simplifies the solver. The guard must never be used again.
  void retire(Formula guard);

  /// The SAT variable backing a Boolean formula variable (creates on demand).
  sat::Var sat_var(BoolVar v);

  /// Reads a BoolVar from the solver model after a kSat result.
  [[nodiscard]] bool model_value(BoolVar v) const;

 private:
  struct Scope {
    Formula guard;
    size_t memo_begin;  // into scope_memo_
    size_t vars_begin;  // into scope_vars_
  };

  sat::Lit encode_node(Formula f);
  /// Steps through negations (flipping `positive`) and bit-vector atoms.
  void see_through(Formula& f, bool& positive);
  /// Adds the one clause (not_guard | f) for a disjunctive `f`.
  void add_disjunction(Formula f, bool positive, sat::Lit not_guard);
  /// Drops the SAT variable mapped to `v`, if any, releasing it.
  void forget(BoolVar v);
  sat::Lit constant_true();

  const FormulaArena* arena_;
  sat::Solver* solver_;
  BvArena* bitvectors_;
  // Dense memo tables; an absent entry is a default Lit / kNoVar.
  static constexpr sat::Var kNoVar = -1;
  std::vector<sat::Lit> cache_;    // formula id -> lit
  std::vector<sat::Var> var_map_;  // BoolVar index -> sat var
  sat::Lit true_lit_;              // permanent; made on first use
  // Open scopes, outer to inner, and what they made: memoised formulas and
  // mapped BoolVar indices, each scope's entries after its begin offsets.
  std::vector<Scope> scopes_;
  std::vector<Formula> scope_memo_;
  std::vector<uint32_t> scope_vars_;
  // Buffers reused by assert_formula.
  std::vector<std::pair<Formula, bool>> conjuncts_;
  std::vector<std::pair<Formula, bool>> disjuncts_;
  std::vector<sat::Lit> clause_;
};

}  // namespace llhsc::logic
