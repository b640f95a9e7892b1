#include "smt/query_plan.hpp"

#include "obs/obs.hpp"

namespace llhsc::smt {

QueryPlanner::QueryPlanner(Solver& solver, const std::string& cache_dir)
    : solver_(&solver) {
  if (!cache_dir.empty()) {
    cache_ = QueryCache::open(cache_dir, solver.backend());
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

QueryPlanner::Outcome QueryPlanner::check(std::span<const logic::Formula> fs,
                                          logic::BvTerm witness_term) {
  obs::Span span("planner.check", "planner");
  auto record = [&](const Outcome& o) {
    if (span.active()) {
      span.arg("verdict", std::string(to_string(o.result)));
      span.arg("from_cache", o.from_cache ? "true" : "false");
    }
    return o;
  };
  std::string key = canonical_query_text(
      solver_->formulas(), solver_->bitvectors(), fs, witness_term);
  if (auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.memo_hits;
    obs::count("planner.memo_hits", "planner", 1);
    return record(it->second);
  }

  if (cache_enabled()) {
    if (auto hit = cache_->lookup(key)) {
      ++stats_.cache_hits;
      obs::count("planner.cache_hits", "planner", 1);
      return record(memo_[std::move(key)] = {hit->result, hit->witness, true});
    }
  }

  // One scope per query: shared structure stays encoded once, and closing
  // the scope keeps the guard-independent learned clauses for later
  // queries on the shared instance while no closed query constrains them.
  Outcome outcome;
  solver_->push();
  for (logic::Formula f : fs) solver_->add(f);
  outcome.result = solver_->check();
  ++stats_.queries_issued;
  obs::count("planner.queries_issued", "planner", 1);
  if (outcome.result == CheckResult::kSat && witness_term.valid()) {
    outcome.witness = solver_->model_bv(witness_term);
  }
  solver_->pop();

  if (cache_enabled() && outcome.result != CheckResult::kUnknown) {
    cache_->store(key, {outcome.result, outcome.witness});
  }
  return record(memo_[std::move(key)] = outcome);
}

}  // namespace llhsc::smt
