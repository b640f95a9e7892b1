// Unit and property tests for the CDCL SAT solver. The property suites
// cross-check the solver against a brute-force evaluator on random small
// instances — any divergence is a solver bug.
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

namespace llhsc::sat {
namespace {

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, SingleUnitClause) {
  Solver s;
  Var x = s.new_var();
  ASSERT_TRUE(s.add_clause(Lit::positive(x)));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(x), Value::kTrue);
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  Solver s;
  Var x = s.new_var();
  EXPECT_TRUE(s.add_clause(Lit::positive(x)));
  EXPECT_FALSE(s.add_clause(Lit::negative(x)));
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{}));
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, TautologicalClauseIsDropped) {
  Solver s;
  Var x = s.new_var();
  EXPECT_TRUE(s.add_clause(Lit::positive(x), Lit::negative(x)));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, SimpleImplicationChain) {
  // x1 & (x1 -> x2) & (x2 -> x3) forces x3.
  Solver s;
  Var x1 = s.new_var(), x2 = s.new_var(), x3 = s.new_var();
  s.add_clause(Lit::positive(x1));
  s.add_clause(Lit::negative(x1), Lit::positive(x2));
  s.add_clause(Lit::negative(x2), Lit::positive(x3));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_bool(x3));
}

TEST(SatSolver, PigeonHole3Into2IsUnsat) {
  // 3 pigeons, 2 holes: classic small unsat instance exercising learning.
  Solver s;
  Var p[3][2];
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < 3; ++i) {
    s.add_clause(Lit::positive(p[i][0]), Lit::positive(p[i][1]));
  }
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.add_clause(Lit::negative(p[i][h]), Lit::negative(p[j][h]));
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, PigeonHole5Into4IsUnsat) {
  Solver s;
  constexpr int P = 5, H = 4;
  std::vector<std::vector<Var>> p(P, std::vector<Var>(H));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < P; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < H; ++h) clause.push_back(Lit::positive(p[i][h]));
    s.add_clause(std::move(clause));
  }
  for (int h = 0; h < H; ++h) {
    for (int i = 0; i < P; ++i) {
      for (int j = i + 1; j < P; ++j) {
        s.add_clause(Lit::negative(p[i][h]), Lit::negative(p[j][h]));
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSolver, AssumptionsSatAndUnsat) {
  Solver s;
  Var x = s.new_var(), y = s.new_var();
  s.add_clause(Lit::negative(x), Lit::positive(y));  // x -> y
  EXPECT_EQ(s.solve({Lit::positive(x)}), SolveResult::kSat);
  EXPECT_TRUE(s.model_bool(y));
  // Assume x and ~y: contradicts x -> y.
  EXPECT_EQ(s.solve({Lit::positive(x), Lit::negative(y)}), SolveResult::kUnsat);
  // Solver is reusable afterwards.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, UnsatCoreContainsOnlyAssumptions) {
  Solver s;
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause(Lit::negative(a), Lit::negative(b));  // ~(a & b)
  ASSERT_EQ(s.solve({Lit::positive(a), Lit::positive(b), Lit::positive(c)}),
            SolveResult::kUnsat);
  const auto& core = s.unsat_core();
  ASSERT_FALSE(core.empty());
  for (Lit l : core) {
    bool is_assumption = l == Lit::positive(a) || l == Lit::positive(b) ||
                         l == Lit::positive(c);
    EXPECT_TRUE(is_assumption) << "core literal is not an assumption";
  }
  // c is irrelevant: a correct (even non-minimal) core from this conflict
  // should contain a or b.
  bool has_ab = std::any_of(core.begin(), core.end(), [&](Lit l) {
    return l == Lit::positive(a) || l == Lit::positive(b);
  });
  EXPECT_TRUE(has_ab);
}

TEST(SatSolver, ModelEnumerationCountsProjectedModels) {
  // x | y has 3 models over {x, y}.
  Solver s;
  Var x = s.new_var(), y = s.new_var();
  s.add_clause(Lit::positive(x), Lit::positive(y));
  EXPECT_EQ(s.count_models({x, y}), 3u);
  // Enumeration must leave the solver usable.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.count_models({x, y}), 3u) << "enumeration must be repeatable";
}

TEST(SatSolver, ModelEnumerationWithProjection) {
  // (x | y) & (z | ~z): project onto {x} -> 2 models (x true, x false w/ y).
  Solver s;
  Var x = s.new_var(), y = s.new_var();
  Var z = s.new_var();
  s.add_clause(Lit::positive(x), Lit::positive(y));
  s.add_clause(Lit::positive(z), Lit::negative(z));
  EXPECT_EQ(s.count_models({x}), 2u);
}

TEST(SatSolver, ModelEnumerationEarlyStop) {
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(s.new_var());
  // No constraints: 16 models; stop after 5.
  uint64_t n = s.enumerate_models(
      vars, [](const std::vector<bool>&) { return true; }, 5);
  EXPECT_EQ(n, 5u);
}

TEST(SatSolver, EnumerationCallbackCanAbort) {
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(s.new_var());
  int seen = 0;
  uint64_t n = s.enumerate_models(vars, [&](const std::vector<bool>&) {
    return ++seen < 3;
  });
  EXPECT_EQ(n, 3u);
}

// ---- Property tests: random 3-SAT vs brute force ----

struct RandomCnfCase {
  int num_vars;
  int num_clauses;
  uint32_t seed;
};

class RandomCnfTest : public ::testing::TestWithParam<RandomCnfCase> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  const auto& param = GetParam();
  std::mt19937 rng(param.seed);
  std::uniform_int_distribution<int> var_dist(0, param.num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);

  std::vector<std::vector<std::pair<int, bool>>> clauses;
  for (int i = 0; i < param.num_clauses; ++i) {
    std::vector<std::pair<int, bool>> clause;
    for (int j = 0; j < 3; ++j) {
      clause.emplace_back(var_dist(rng), sign_dist(rng) == 1);
    }
    clauses.push_back(std::move(clause));
  }

  // Brute force.
  bool brute_sat = false;
  for (uint32_t m = 0; m < (1u << param.num_vars) && !brute_sat; ++m) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (auto [v, neg] : clause) {
        bool val = (m >> v) & 1;
        if (neg ? !val : val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }

  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < param.num_vars; ++i) vars.push_back(s.new_var());
  bool ok = true;
  for (const auto& clause : clauses) {
    std::vector<Lit> lits;
    for (auto [v, neg] : clause) lits.push_back(Lit(vars[v], neg));
    ok = s.add_clause(std::move(lits)) && ok;
  }
  SolveResult r = ok ? s.solve() : SolveResult::kUnsat;
  EXPECT_EQ(r == SolveResult::kSat, brute_sat);

  if (r == SolveResult::kSat) {
    // Verify the model actually satisfies every clause.
    for (const auto& clause : clauses) {
      bool any = false;
      for (auto [v, neg] : clause) {
        bool val = s.model_bool(vars[v]);
        if (neg ? !val : val) {
          any = true;
          break;
        }
      }
      EXPECT_TRUE(any) << "model does not satisfy a clause";
    }
  }
}

std::vector<RandomCnfCase> make_random_cases() {
  std::vector<RandomCnfCase> cases;
  // Sweep the clause/variable ratio through the 3-SAT phase transition
  // (~4.27) so both sat and unsat instances appear.
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({8, 20, seed});        // under-constrained
    cases.push_back({8, 34, seed + 100});  // near transition
    cases.push_back({8, 60, seed + 200});  // over-constrained
    cases.push_back({12, 51, seed + 300});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, RandomCnfTest,
                         ::testing::ValuesIn(make_random_cases()));

// Model counting vs brute force on random instances.
class RandomCountTest : public ::testing::TestWithParam<RandomCnfCase> {};

TEST_P(RandomCountTest, CountAgreesWithBruteForce) {
  const auto& param = GetParam();
  std::mt19937 rng(param.seed);
  std::uniform_int_distribution<int> var_dist(0, param.num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);

  std::vector<std::vector<std::pair<int, bool>>> clauses;
  for (int i = 0; i < param.num_clauses; ++i) {
    std::vector<std::pair<int, bool>> clause;
    for (int j = 0; j < 3; ++j) {
      clause.emplace_back(var_dist(rng), sign_dist(rng) == 1);
    }
    clauses.push_back(std::move(clause));
  }

  uint64_t brute_count = 0;
  for (uint32_t m = 0; m < (1u << param.num_vars); ++m) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (auto [v, neg] : clause) {
        bool val = (m >> v) & 1;
        if (neg ? !val : val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) ++brute_count;
  }

  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < param.num_vars; ++i) vars.push_back(s.new_var());
  bool ok = true;
  for (const auto& clause : clauses) {
    std::vector<Lit> lits;
    for (auto [v, neg] : clause) lits.push_back(Lit(vars[v], neg));
    ok = s.add_clause(std::move(lits)) && ok;
  }
  uint64_t count = ok ? s.count_models(vars) : 0;
  EXPECT_EQ(count, brute_count);
}

std::vector<RandomCnfCase> make_count_cases() {
  std::vector<RandomCnfCase> cases;
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    cases.push_back({6, 10, seed});
    cases.push_back({7, 20, seed + 50});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomCounting, RandomCountTest,
                         ::testing::ValuesIn(make_count_cases()));

TEST(SatSolver, LargeChainPropagationIsFast) {
  // 10k-variable implication chain: exercises watched-literal propagation.
  Solver s;
  constexpr int N = 10000;
  std::vector<Var> vars;
  for (int i = 0; i < N; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < N; ++i) {
    s.add_clause(Lit::negative(vars[i]), Lit::positive(vars[i + 1]));
  }
  s.add_clause(Lit::positive(vars[0]));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_bool(vars[N - 1]));
}

TEST(SatSolver, UnsatVerdictIsStableAcrossRepeatedSolves) {
  // Regression: a conflict reached at decision level 0 *during search*
  // (i.e. after learned units, not at add_clause time) must latch ok_.
  // Before the fix, the first solve consumed the level-0 trail, returned
  // kUnsat, and a second solve produced a bogus model.
  Solver s;
  Var v[6];
  for (auto& x : v) x = s.new_var();
  auto L = [&](int i) { return Lit::positive(v[i]); };
  // Unsat over binary clauses only, so nothing is decided at add time.
  s.add_clause(L(0), L(5));
  s.add_clause(L(5), L(4));
  s.add_clause(L(3), L(2));
  s.add_clause(L(4), L(2));
  s.add_clause(L(1), ~L(4));
  s.add_clause(L(2), ~L(5));
  s.add_clause(~L(1), L(3));
  s.add_clause(~L(3), ~L(4));
  s.add_clause(L(4), ~L(5));
  s.add_clause(L(2), ~L(3));
  s.add_clause(~L(2), L(5));
  ASSERT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(SatSolver, ExpiredDeadlineReturnsUnknown) {
  Solver s;
  Var x = s.new_var(), y = s.new_var();
  s.add_clause(Lit::positive(x), Lit::positive(y));
  s.set_deadline(support::Deadline::after_ms(0));
  EXPECT_EQ(s.solve(), SolveResult::kUnknown);
  // Clearing the deadline restores normal operation.
  s.set_deadline(support::Deadline());
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, UnlimitedDeadlineNeverReturnsUnknown) {
  Solver s;
  Var x = s.new_var();
  s.add_clause(Lit::positive(x));
  s.set_deadline(support::Deadline::after_ms(60000));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

// ---- Learned-clause retention across guard retirement ----

// A hard-but-satisfiable random 3-SAT instance near the phase transition:
// enough conflicts to populate the learned-clause database.
void add_hard_sat_instance(Solver& s, std::vector<Var>& vars) {
  std::mt19937 rng(7);
  constexpr int kVars = 24;
  constexpr int kClauses = 96;
  std::uniform_int_distribution<int> var_dist(0, kVars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  for (int i = 0; i < kVars; ++i) vars.push_back(s.new_var());
  int added = 0;
  while (added < kClauses) {
    int a = var_dist(rng), b = var_dist(rng), c = var_dist(rng);
    if (a == b || b == c || a == c) continue;
    if (s.add_clause(Lit(vars[a], sign_dist(rng) == 1),
                     Lit(vars[b], sign_dist(rng) == 1),
                     Lit(vars[c], sign_dist(rng) == 1))) {
      ++added;
    }
  }
}

TEST(SatSolverRetention, SimplifyKeepsGuardIndependentLearnedClauses) {
  Solver s;
  std::vector<Var> vars;
  add_hard_sat_instance(s, vars);
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  ASSERT_GT(s.stats().conflicts, 0u) << "instance too easy to learn anything";

  // Guarded clauses, as the query planner issues them: (~g | c). None of the
  // learned clauses above mention g — they were derived before g existed.
  Var g = s.new_var();
  s.add_clause(Lit::negative(g), Lit::positive(vars[0]));
  s.add_clause(Lit::negative(g), Lit::positive(vars[1]), Lit::positive(vars[2]));

  // Retire the guard and sweep: the two guarded clauses are satisfied by ~g
  // at level 0 and go; the guard-independent learned clauses stay.
  ASSERT_TRUE(s.add_clause(Lit::negative(g)));
  s.simplify();
  EXPECT_EQ(s.stats().simplifies, 1u);
  EXPECT_GE(s.stats().simplify_removed, 2u);
  EXPECT_GT(s.stats().retained_learned, 0u)
      << "guard-independent learned clauses must survive retirement";
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolverRetention, SimplifySweepsGuardDependentLearnedClauses) {
  // Every original clause is guarded, so every learned clause is a
  // consequence of g and must carry ~g: retiring g sweeps the whole
  // database, retained_learned == 0.
  Solver s;
  Var g = s.new_var();
  constexpr int P = 5, H = 4;
  std::vector<std::vector<Var>> p(P, std::vector<Var>(H));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < P; ++i) {
    std::vector<Lit> clause{Lit::negative(g)};
    for (int h = 0; h < H; ++h) clause.push_back(Lit::positive(p[i][h]));
    s.add_clause(std::move(clause));
  }
  for (int h = 0; h < H; ++h) {
    for (int i = 0; i < P; ++i) {
      for (int j = i + 1; j < P; ++j) {
        s.add_clause(Lit::negative(g), Lit::negative(p[i][h]),
                     Lit::negative(p[j][h]));
      }
    }
  }
  ASSERT_EQ(s.solve({Lit::positive(g)}), SolveResult::kUnsat);
  ASSERT_GT(s.stats().conflicts, 0u);

  ASSERT_TRUE(s.add_clause(Lit::negative(g)));
  s.simplify();
  EXPECT_GT(s.stats().simplify_removed, 0u);
  EXPECT_EQ(s.stats().retained_learned, 0u)
      << "every learned clause depended on the retired guard";
  // With the guard retired the formula is vacuous again.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

// A released variable's clauses go with it at the next simplify(), it
// leaves the level-0 trail, and new_var() reuses the lowest free index.
TEST(SatSolverRetention, ReleasedVariablesAreSweptAndReused) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause(Lit::positive(a), Lit::positive(b));
  s.add_clause(Lit::negative(b), Lit::positive(c));
  s.add_clause(Lit::positive(b));  // fixes b and c at level 0
  ASSERT_EQ(s.solve({Lit::negative(a)}), SolveResult::kSat);
  s.release(c);
  s.release(b);
  s.simplify();
  EXPECT_EQ(s.num_live_vars(), 1);
  EXPECT_EQ(s.arena_size() - s.arena_garbage(), 0u);
  EXPECT_EQ(s.new_var(), b);
  EXPECT_EQ(s.new_var(), c);
  // Neither reused index remembers its old clauses or level-0 value.
  EXPECT_EQ(s.solve({Lit::negative(a), Lit::negative(b), Lit::negative(c)}),
            SolveResult::kSat);
}

// ---- Cancellation through the deadline token ----

TEST(SatSolver, CancelTokenStopsSearchFromAnotherThread) {
  // 24-bit multiplication commutativity via pigeonhole-style hard instance:
  // use a big pigeonhole that cannot finish quickly, then cancel it.
  Solver s;
  constexpr int P = 12, H = 11;
  std::vector<std::vector<Var>> p(P, std::vector<Var>(H));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < P; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < H; ++h) clause.push_back(Lit::positive(p[i][h]));
    s.add_clause(std::move(clause));
  }
  for (int h = 0; h < H; ++h) {
    for (int i = 0; i < P; ++i) {
      for (int j = i + 1; j < P; ++j) {
        s.add_clause(Lit::negative(p[i][h]), Lit::negative(p[j][h]));
      }
    }
  }
  support::CancelToken cancel = support::CancelToken::create();
  s.set_deadline(support::Deadline().with_cancel(cancel));
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.cancel();
  });
  SolveResult r = s.solve();
  canceller.join();
  // Either the search was cancelled (kUnknown) or it legitimately finished
  // under 50ms (kUnsat); both are sound, a hang is the failure mode.
  EXPECT_TRUE(r == SolveResult::kUnknown || r == SolveResult::kUnsat);
  // A cancelled solver is reusable once the token is cleared.
  s.set_deadline(support::Deadline());
  Solver fresh;
  Var x = fresh.new_var();
  fresh.add_clause(Lit::positive(x));
  EXPECT_EQ(fresh.solve(), SolveResult::kSat);
}

TEST(SatSolver, AlreadyCancelledTokenYieldsUnknown) {
  Solver s;
  Var x = s.new_var(), y = s.new_var();
  s.add_clause(Lit::positive(x), Lit::positive(y));
  support::CancelToken cancel = support::CancelToken::create();
  cancel.cancel();
  s.set_deadline(support::Deadline().with_cancel(cancel));
  EXPECT_EQ(s.solve(), SolveResult::kUnknown);
  s.set_deadline(support::Deadline());
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, StatsArePopulated) {
  Solver s;
  Var x = s.new_var(), y = s.new_var();
  s.add_clause(Lit::positive(x), Lit::positive(y));
  s.solve();
  EXPECT_GE(s.stats().decisions, 1u);
}

}  // namespace
}  // namespace llhsc::sat
