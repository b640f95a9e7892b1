// Portfolio backend: races the builtin CDCL backend against Z3 on every
// check. Both backends receive the identical assertion stream; at check time
// the query is pre-encoded into both (sequentially — the builtin encoder
// mutates the shared term arenas), then the two solvers run on separate
// threads. The first definitive verdict (sat/unsat) claims the race with an
// atomic compare-exchange and cancels the loser:
//
//   - the builtin solver polls a support::CancelToken threaded through its
//     Deadline and backs out of the CDCL loop at the next poll;
//   - Z3 is stopped through z3::context::interrupt(), its documented
//     cross-thread cancellation point.
//
// Both threads are joined before check() returns, so the backends are
// strictly single-threaded outside the race window. Model and unsat-core
// queries are forwarded to whichever backend won the last race. Verdicts are
// backend-independent by construction and findings are byte-identical
// because witness terms are pinned at query construction.
#include <atomic>
#include <thread>

#include "obs/obs.hpp"
#include "smt/solver.hpp"

namespace llhsc::smt {

std::unique_ptr<SolverBackend> make_builtin_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors);
std::unique_ptr<SolverBackend> make_z3_backend(logic::FormulaArena& formulas,
                                               logic::BvArena& bitvectors);

namespace {

class PortfolioBackend final : public SolverBackend {
 public:
  PortfolioBackend(logic::FormulaArena& formulas, logic::BvArena& bitvectors)
      : builtin_(make_builtin_backend(formulas, bitvectors)),
        z3_(make_z3_backend(formulas, bitvectors)) {
    winner_ = builtin_.get();
  }

  void add(logic::Formula f, logic::Formula guard) override {
    builtin_->add(f, guard);
    z3_->add(f, guard);
  }

  void set_deadline(const support::Deadline& deadline) override {
    deadline_ = deadline;
  }

  void retire(logic::Formula guard) override {
    builtin_->retire(guard);
    z3_->retire(guard);
  }

  void prepare(std::span<const logic::Formula> assumptions) override {
    builtin_->prepare(assumptions);  // mutates the shared arenas — first
    z3_->prepare(assumptions);       // then reads them
  }

  CheckResult check(std::span<const logic::Formula> assumptions) override {
    // All shared-arena mutation happens here, before any thread is spawned.
    prepare(assumptions);

    support::CancelToken cancel = support::CancelToken::create();
    builtin_->set_deadline(deadline_.with_cancel(cancel));
    z3_->set_deadline(deadline_);

    // -1 = undecided, 0 = builtin, 1 = z3. The loser's verdict is discarded
    // (when both are definitive they agree; differential tests enforce it).
    std::atomic<int> claimed{-1};
    CheckResult z3_result = CheckResult::kUnknown;

    std::thread z3_thread([&] {
      CheckResult r = CheckResult::kUnknown;
      try {
        r = z3_->check(assumptions);
      } catch (...) {
        r = CheckResult::kUnknown;  // interrupted mid-check
      }
      if (r != CheckResult::kUnknown) {
        int expected = -1;
        if (claimed.compare_exchange_strong(expected, 1)) {
          cancel.cancel();  // stop the builtin search loop
        }
      }
      z3_result = r;
    });

    CheckResult builtin_result = builtin_->check(assumptions);
    if (builtin_result != CheckResult::kUnknown) {
      int expected = -1;
      if (claimed.compare_exchange_strong(expected, 0)) {
        z3_->interrupt();
      }
    }
    z3_thread.join();

    switch (claimed.load()) {
      case 0:
        winner_ = builtin_.get();
        obs::count("portfolio_wins_builtin", "solver", 1);
        return builtin_result;
      case 1:
        winner_ = z3_.get();
        obs::count("portfolio_wins_z3", "solver", 1);
        return z3_result;
      default:
        // Neither produced a verdict (deadline expired on both sides).
        winner_ = builtin_.get();
        return CheckResult::kUnknown;
    }
  }

  bool model_bool(logic::BoolVar v) override { return winner_->model_bool(v); }

  uint64_t model_bv(logic::BvTerm t) override { return winner_->model_bv(t); }

  std::vector<logic::Formula> unsat_core() override {
    return winner_->unsat_core();
  }

 private:
  std::unique_ptr<SolverBackend> builtin_;
  std::unique_ptr<SolverBackend> z3_;
  SolverBackend* winner_;  // backend that won the last race
  support::Deadline deadline_;
};

}  // namespace

std::unique_ptr<SolverBackend> make_portfolio_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors) {
  return std::make_unique<PortfolioBackend>(formulas, bitvectors);
}

}  // namespace llhsc::smt
