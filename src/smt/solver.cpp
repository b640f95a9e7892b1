#include "smt/solver.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace llhsc::smt {

// Backend factories (defined in their own translation units).
std::unique_ptr<SolverBackend> make_builtin_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors);
std::unique_ptr<SolverBackend> make_z3_backend(logic::FormulaArena& formulas,
                                               logic::BvArena& bitvectors);
std::unique_ptr<SolverBackend> make_portfolio_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors);

std::string_view to_string(Backend b) {
  switch (b) {
    case Backend::kBuiltin: return "builtin";
    case Backend::kZ3: return "z3";
    case Backend::kPortfolio: return "portfolio";
  }
  return "unknown";
}

Backend backend_from_name(std::string_view name, std::string* warning) {
  if (name == "z3") return Backend::kZ3;
  if (name == "portfolio") return Backend::kPortfolio;
  if (name != "builtin" && warning != nullptr) {
    *warning += "warning: unknown backend '" + std::string(name) +
                "', using builtin\n";
  }
  return Backend::kBuiltin;
}

std::string_view to_string(CheckResult r) {
  switch (r) {
    case CheckResult::kSat: return "sat";
    case CheckResult::kUnsat: return "unsat";
    case CheckResult::kUnknown: return "unknown";
  }
  return "unknown";
}

Solver::Solver(Backend backend)
    : backend_kind_(backend), bitvectors_(formulas_) {
  switch (backend) {
    case Backend::kBuiltin:
      backend_ = make_builtin_backend(formulas_, bitvectors_);
      break;
    case Backend::kZ3:
      backend_ = make_z3_backend(formulas_, bitvectors_);
      break;
    case Backend::kPortfolio:
      backend_ = make_portfolio_backend(formulas_, bitvectors_);
      break;
  }
}

Solver::~Solver() = default;

logic::Formula Solver::bool_var(const std::string& name) {
  return formulas_.var(formulas_.new_bool_var(name));
}

logic::BvTerm Solver::bv_var(const std::string& name, uint32_t width) {
  return bitvectors_.bv_var(name, width);
}

void Solver::add(logic::Formula f) {
  backend_->add(f, guards_.empty() ? logic::Formula() : guards_.back());
}

void Solver::push() { guards_.push_back(bool_var("scope")); }

void Solver::pop() {
  assert(!guards_.empty());
  if (guards_.empty()) return;  // unbalanced pop: keep the store sound
  const logic::Formula guard = guards_.back();
  guards_.pop_back();
  // The guard is never assumed again, so !g holds at the top level: the
  // scope's assertions go vacuous and the backend sweeps what they left.
  backend_->retire(guard);
}

void Solver::set_deadline(const support::Deadline& deadline) {
  deadline_ = deadline;
  backend_->set_deadline(deadline);
}

CheckResult Solver::check() { return check_assuming({}); }

CheckResult Solver::check_assuming(std::span<const logic::Formula> assumptions) {
  std::vector<logic::Formula> scoped;
  if (!guards_.empty()) {
    scoped.reserve(guards_.size() + assumptions.size());
    scoped.assign(guards_.begin(), guards_.end());
    scoped.insert(scoped.end(), assumptions.begin(), assumptions.end());
    assumptions = scoped;
  }
  obs::Span span("solver.check", "solver");
  ++stats_.checks;
  CheckResult r = backend_->check(assumptions);
  if (r == CheckResult::kSat) ++stats_.sat_results;
  if (r == CheckResult::kUnsat) ++stats_.unsat_results;
  if (r == CheckResult::kUnknown) ++stats_.unknown_results;
  obs::count("solver.checks", "solver", 1);
  if (span.active()) {
    span.arg("backend", std::string(to_string(backend_kind_)));
    span.arg("verdict", std::string(to_string(r)));
    span.arg("assumptions", std::to_string(assumptions.size()));
    span.arg("deadline_ms", deadline_.unlimited()
                                ? "unlimited"
                                : std::to_string(deadline_.remaining_ms()));
  }
  return r;
}

bool Solver::model_bool(logic::BoolVar v) { return backend_->model_bool(v); }

bool Solver::model_bool(logic::Formula var_formula) {
  return backend_->model_bool(formulas_.var_of(var_formula));
}

uint64_t Solver::model_bv(logic::BvTerm t) { return backend_->model_bv(t); }

std::vector<logic::Formula> Solver::unsat_core() {
  std::vector<logic::Formula> core = backend_->unsat_core();
  std::erase_if(core, [&](logic::Formula f) {
    return std::find(guards_.begin(), guards_.end(), f) != guards_.end();
  });
  return core;
}

Solver::Enumeration Solver::enumerate(
    std::span<const logic::Formula> projection,
    std::span<const logic::Formula> assumptions, uint64_t cap,
    const ModelCallback& on_model) {
  Enumeration e;
  push();
  std::vector<bool> values(projection.size());
  std::vector<logic::Formula> blocking;
  blocking.reserve(projection.size());
  while (check_assuming(assumptions) == CheckResult::kSat) {
    if (e.models == cap) {
      e.capped = true;
      break;
    }
    blocking.clear();
    for (size_t i = 0; i < projection.size(); ++i) {
      values[i] = model_bool(projection[i]);
      blocking.push_back(values[i] ? formulas_.mk_not(projection[i])
                                   : projection[i]);
    }
    ++e.models;
    if (!on_model(values)) break;
    add(formulas_.mk_or(blocking));
  }
  pop();
  return e;
}

std::vector<Backend> all_backends() {
  return {Backend::kBuiltin, Backend::kZ3, Backend::kPortfolio};
}

}  // namespace llhsc::smt
