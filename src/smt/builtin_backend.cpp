// Builtin backend: Tseitin-encodes formulas onto the in-tree CDCL solver.
// Scopes reach it from smt::Solver as guards: a guarded assertion goes to
// the encoder with its guard, the open guards are ordinary assumptions, and
// retire(g) lets the encoder close g's scope, which releases every SAT
// variable the scope made and sweeps the clauses that mention them
// (logic/cnf.hpp).
#include <vector>

#include "logic/cnf.hpp"
#include "obs/obs.hpp"
#include "sat/solver.hpp"
#include "smt/solver.hpp"

namespace llhsc::smt {

namespace {

class BuiltinBackend final : public SolverBackend {
 public:
  BuiltinBackend(logic::FormulaArena& formulas, logic::BvArena& bitvectors)
      : formulas_(&formulas),
        bitvectors_(&bitvectors),
        encoder_(formulas, sat_, &bitvectors) {}

  void add(logic::Formula f, logic::Formula guard) override {
    encoder_.assert_formula(f, guard);
  }

  void set_deadline(const support::Deadline& deadline) override {
    sat_.set_deadline(deadline);
  }

  void prepare(std::span<const logic::Formula> assumptions) override {
    // Forces Tseitin encoding + bit-blasting now (mutating the shared
    // arenas); the subsequent check() hits the memoised literals.
    for (logic::Formula f : assumptions) (void)encoder_.encode(f);
  }

  void retire(logic::Formula guard) override { encoder_.retire(guard); }

  CheckResult check(std::span<const logic::Formula> assumptions) override {
    std::vector<sat::Lit> assume;
    assume.reserve(assumptions.size());
    assumption_map_.clear();
    for (logic::Formula f : assumptions) {
      sat::Lit l = encoder_.encode(f);
      assumption_map_.emplace_back(l, f);
      assume.push_back(l);
    }
    const uint64_t conflicts_before = sat_.stats().conflicts;
    const sat::SolveResult r = sat_.solve(assume);
    // Conflict accounting per check: how hard the CDCL search worked.
    obs::count("solver.conflicts", "solver",
               static_cast<int64_t>(sat_.stats().conflicts - conflicts_before));
    switch (r) {
      case sat::SolveResult::kSat: return CheckResult::kSat;
      case sat::SolveResult::kUnsat: return CheckResult::kUnsat;
      case sat::SolveResult::kUnknown: return CheckResult::kUnknown;
    }
    return CheckResult::kUnknown;
  }

  std::vector<logic::Formula> unsat_core() override {
    // Map the SAT-level core literals back to the assumption formulas.
    std::vector<logic::Formula> core;
    for (sat::Lit l : sat_.unsat_core()) {
      for (const auto& [lit, formula] : assumption_map_) {
        if (lit == l) {
          core.push_back(formula);
          break;
        }
      }
    }
    return core;
  }

  bool model_bool(logic::BoolVar v) override { return encoder_.model_value(v); }

  uint64_t model_bv(logic::BvTerm t) override {
    // Unconstrained bits read false — a legal model completion. A variable
    // term reads its own bits; any other term is evaluated over a full
    // Boolean assignment rebuilt from the SAT model.
    if (bitvectors_->term_op(t) == logic::BvOp::kVar) {
      const std::vector<logic::BoolVar>& bits = bitvectors_->var_bits(t);
      uint64_t value = 0;
      for (size_t i = 0; i < bits.size(); ++i) {
        if (encoder_.model_value(bits[i])) value |= uint64_t{1} << i;
      }
      return value;
    }
    std::vector<bool> assignment(formulas_->num_bool_vars(), false);
    for (uint32_t i = 0; i < assignment.size(); ++i) {
      assignment[i] = encoder_.model_value(logic::BoolVar{i});
    }
    return bitvectors_->evaluate(t, assignment);
  }

 private:
  logic::FormulaArena* formulas_;
  logic::BvArena* bitvectors_;
  sat::Solver sat_;
  logic::CnfEncoder encoder_;
  std::vector<std::pair<sat::Lit, logic::Formula>> assumption_map_;
};

}  // namespace

std::unique_ptr<SolverBackend> make_builtin_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors) {
  return std::make_unique<BuiltinBackend>(formulas, bitvectors);
}

}  // namespace llhsc::smt
