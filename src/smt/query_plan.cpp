#include "smt/query_plan.hpp"

#include <cassert>
#include <vector>

#include "obs/obs.hpp"

namespace llhsc::smt {

QueryPlanner::QueryPlanner(Solver& solver, const std::string& cache_dir)
    : solver_(&solver) {
  if (!cache_dir.empty()) {
    cache_ = std::make_unique<QueryCache>(cache_dir, solver.backend());
    if (!cache_->enabled()) {
      stats_.cache_errors = 1;
      obs::count("planner.cache_errors", "planner", 1);
    }
  }
}

void QueryPlanner::note_pruned(uint64_t n) {
  stats_.queries_pruned += n;
  obs::count("planner.queries_pruned", "planner", static_cast<int64_t>(n));
}

const std::string& QueryPlanner::cache_error() const {
  static const std::string kEmpty;
  return cache_ == nullptr ? kEmpty : cache_->error();
}

QueryPlanner::Outcome QueryPlanner::check(
    std::span<const logic::Formula> fs, logic::BvTerm witness_term,
    std::span<const logic::Formula> presence) {
  assert((presence.empty() || cache_ == nullptr) &&
         "presence literals need a cacheless planner");
  obs::Span span("planner.check", "planner");
  Outcome outcome;
  std::string key;
  if (cache_enabled()) {
    key = canonical_query_text(solver_->formulas(), solver_->bitvectors(), fs,
                               witness_term);
    if (auto hit = cache_->lookup(key)) {
      ++stats_.cache_hits;
      obs::count("planner.cache_hits", "planner", 1);
      outcome.result = hit->result;
      outcome.witness = hit->witness;
      outcome.from_cache = true;
      if (span.active()) {
        span.arg("verdict", std::string(to_string(outcome.result)));
        span.arg("from_cache", "true");
      }
      return outcome;
    }
  }

  logic::FormulaArena& fa = solver_->formulas();
  const logic::Formula guard =
      solver_->bool_var("qp.g" + std::to_string(guard_counter_++));
  for (logic::Formula f : fs) {
    solver_->add(fa.mk_implies(guard, f));
  }
  std::vector<logic::Formula> assumptions{guard};
  assumptions.insert(assumptions.end(), presence.begin(), presence.end());
  outcome.result = solver_->check_assuming(assumptions);
  ++stats_.queries_issued;
  obs::count("planner.queries_issued", "planner", 1);
  if (outcome.result == CheckResult::kSat && witness_term.valid()) {
    outcome.witness = solver_->model_bv(witness_term);
  }
  // Retire the guard: the implications become vacuous and the backend sweeps
  // any learned clauses that depended on the guard, while keeping the
  // guard-independent ones to prune later queries on the shared instance.
  solver_->retire(guard);

  if (cache_enabled() && outcome.result != CheckResult::kUnknown) {
    cache_->store(key, {outcome.result, outcome.witness});
  }
  if (span.active()) {
    span.arg("verdict", std::string(to_string(outcome.result)));
    span.arg("from_cache", "false");
  }
  return outcome;
}

}  // namespace llhsc::smt
