// Tseitin transformation from a FormulaArena DAG to CNF clauses over
// sat::Solver literals. Because formulas are hash-consed, each distinct gate
// gets exactly one auxiliary variable regardless of how many times it is
// shared, keeping the CNF linear in the DAG size.
//
// Asserted formulas skip the gates at the top: a top-level AND asserts each
// conjunct, and a top-level OR (through nested ORs) becomes one clause over
// its disjuncts' literals. A guarded disjunction g ⇒ (a ∨ ¬b ∨ …) — the
// query planner's guards and the lift engine's blocking clauses — is thus a
// single clause, and once ¬g is asserted sat::Solver::simplify() deletes it
// whole. Gates *inside* a disjunct (a bit-blasted comparator, say) are
// definitions over their inputs, not over g, so they outlive the guard.
#pragma once

#include <vector>

#include "logic/bitvector.hpp"
#include "logic/formula.hpp"
#include "sat/solver.hpp"

namespace llhsc::logic {

/// Bridges one FormulaArena and one sat::Solver. Stateless between calls
/// except for memoisation; asserting the same formula twice is idempotent
/// at the clause level (the gate variables are reused). When a BvArena is
/// supplied, kBvAtom leaves are bit-blasted through it; without one they are
/// rejected (feature-model workloads are purely propositional).
class CnfEncoder {
 public:
  CnfEncoder(const FormulaArena& arena, sat::Solver& solver,
             BvArena* bitvectors = nullptr)
      : arena_(&arena), solver_(&solver), bitvectors_(bitvectors) {}

  /// Returns the SAT literal equivalent to `f`, adding defining clauses.
  sat::Lit encode(Formula f);

  /// Asserts `f` as a top-level constraint.
  void assert_formula(Formula f);

  /// The SAT variable backing a Boolean formula variable (creates on demand).
  sat::Var sat_var(BoolVar v);

  /// Reads a BoolVar from the solver model after a kSat result.
  [[nodiscard]] bool model_value(BoolVar v) const;

 private:
  sat::Lit encode_node(Formula f);

  const FormulaArena* arena_;
  sat::Solver* solver_;
  BvArena* bitvectors_;
  // Dense memo tables; an absent entry is a default Lit / kNoVar.
  static constexpr sat::Var kNoVar = -1;
  std::vector<sat::Lit> cache_;    // formula id -> lit
  std::vector<sat::Var> var_map_;  // BoolVar index -> sat var
};

}  // namespace llhsc::logic
