// Tseitin encoder tests: for random formulas, the CNF must be equisatisfiable
// and every SAT model of the CNF must satisfy the original formula.
#include "logic/cnf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "logic/bitvector.hpp"
#include "logic/formula.hpp"
#include "sat/solver.hpp"

namespace llhsc::logic {
namespace {

TEST(CnfEncoder, AssertVariable) {
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  BoolVar a = arena.new_bool_var("a");
  enc.assert_formula(arena.var(a));
  ASSERT_EQ(solver.solve(), sat::SolveResult::kSat);
  EXPECT_TRUE(enc.model_value(a));
}

TEST(CnfEncoder, AssertContradictionIsUnsat) {
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  Formula a = arena.var(arena.new_bool_var("a"));
  enc.assert_formula(a);
  enc.assert_formula(arena.mk_not(a));
  EXPECT_EQ(solver.solve(), sat::SolveResult::kUnsat);
}

TEST(CnfEncoder, TopLevelAndSplits) {
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  BoolVar a = arena.new_bool_var("a");
  BoolVar b = arena.new_bool_var("b");
  enc.assert_formula(arena.mk_and(arena.var(a), arena.var(b)));
  ASSERT_EQ(solver.solve(), sat::SolveResult::kSat);
  EXPECT_TRUE(enc.model_value(a));
  EXPECT_TRUE(enc.model_value(b));
}

TEST(CnfEncoder, XorConstraint) {
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  BoolVar a = arena.new_bool_var("a");
  BoolVar b = arena.new_bool_var("b");
  enc.assert_formula(arena.mk_xor(arena.var(a), arena.var(b)));
  ASSERT_EQ(solver.solve(), sat::SolveResult::kSat);
  EXPECT_NE(enc.model_value(a), enc.model_value(b));
}

// A top-level disjunction is one clause over its leaves' literals: no gate
// variable, and retiring its guard lets simplify() delete it whole.
TEST(CnfEncoder, TopLevelDisjunctionIsOneClause) {
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  std::vector<BoolVar> v;
  for (const char* name : {"g", "a", "b", "c"}) {
    v.push_back(arena.new_bool_var(name));
    (void)enc.sat_var(v.back());
  }
  const int vars_before = solver.num_vars();
  const Formula disjuncts[] = {arena.mk_not(arena.var(v[0])), arena.var(v[1]),
                               arena.mk_not(arena.var(v[2])), arena.var(v[3])};
  enc.assert_formula(arena.mk_or(disjuncts));
  EXPECT_EQ(solver.num_vars(), vars_before);

  const uint64_t removed_before = solver.stats().simplify_removed;
  solver.add_clause(sat::Lit::negative(enc.sat_var(v[0])));
  solver.simplify();
  EXPECT_EQ(solver.stats().simplify_removed, removed_before + 1);
}

// The lift engine's shape: many guarded blocking clauses, each checked under
// its guard and then retired. A retired guard's variable is released, so
// the next guard reuses it: one variable beyond the base, not one per clause.
TEST(CnfEncoder, RetiredGuardsLeaveNoVariables) {
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  std::vector<BoolVar> base;
  for (int i = 0; i < 12; ++i) {
    base.push_back(arena.new_bool_var("x" + std::to_string(i)));
    (void)enc.sat_var(base.back());
  }
  const int base_vars = solver.num_vars();
  std::mt19937 rng(7);
  constexpr int kClauses = 1000;
  for (int i = 0; i < kClauses; ++i) {
    // Five distinct variables with random signs: a clause that is never a
    // tautology.
    std::shuffle(base.begin(), base.end(), rng);
    std::vector<Formula> blocking;
    for (int k = 0; k < 5; ++k) {
      const Formula x = arena.var(base[static_cast<size_t>(k)]);
      blocking.push_back(rng() & 1 ? arena.mk_not(x) : x);
    }
    const Formula g = arena.var(arena.new_bool_var("g" + std::to_string(i)));
    enc.assert_formula(arena.mk_or(blocking), g);
    ASSERT_EQ(solver.solve({enc.encode(g)}), sat::SolveResult::kSat);
    enc.retire(g);
  }
  EXPECT_EQ(solver.num_vars(), base_vars + 1);
  EXPECT_EQ(solver.num_live_vars(), base_vars);
  EXPECT_EQ(solver.solve(), sat::SolveResult::kSat);
}

// One 64-bit formula-(7) overlap body (witness in both regions, pinned to
// the larger base). The encoding's variable count is pinned: encoding must
// not change the CNF it emits for a body, only how fast it emits it. A
// comparator step against a constant bit is one gate.
constexpr int kOverlapBodyVars = 273;

TEST(CnfEncoder, OverlapBodyVariableCountIsPinned) {
  FormulaArena arena;
  BvArena bv(arena);
  sat::Solver solver;
  CnfEncoder enc(arena, solver, &bv);
  constexpr uint32_t kWidth = 64;
  const BvTerm witness = bv.bv_var("w", kWidth);
  auto in_range = [&](uint64_t base, uint64_t size) {
    const BvTerm base_t = bv.bv_const(base, kWidth);
    const BvTerm end_t = bv.bv_add(base_t, bv.bv_const(size, kWidth));
    return arena.mk_and(bv.uge(witness, base_t), bv.ult(witness, end_t));
  };
  const Formula body[] = {in_range(0x80000000, 0x10000000),
                          in_range(0x88000000, 0x01000000),
                          bv.eq(witness, bv.bv_const(0x88000000, kWidth))};
  (void)enc.encode(arena.mk_and(body));
  EXPECT_EQ(solver.num_vars(), kOverlapBodyVars);
  ASSERT_EQ(solver.solve({enc.encode(arena.mk_and(body))}),
            sat::SolveResult::kSat);
}

// Random formula property test: Tseitin encoding preserves satisfiability and
// models project correctly.
struct RandomFormulaCase {
  uint32_t seed;
  int num_vars;
  int depth;
};

class RandomFormulaTest : public ::testing::TestWithParam<RandomFormulaCase> {
 protected:
  Formula random_formula(FormulaArena& arena, const std::vector<Formula>& vars,
                         std::mt19937& rng, int depth) {
    std::uniform_int_distribution<int> op_dist(0, depth <= 0 ? 0 : 5);
    switch (op_dist(rng)) {
      case 0: {
        std::uniform_int_distribution<size_t> v(0, vars.size() - 1);
        return vars[v(rng)];
      }
      case 1:
        return arena.mk_not(random_formula(arena, vars, rng, depth - 1));
      case 2:
        return arena.mk_and(random_formula(arena, vars, rng, depth - 1),
                            random_formula(arena, vars, rng, depth - 1));
      case 3:
        return arena.mk_or(random_formula(arena, vars, rng, depth - 1),
                           random_formula(arena, vars, rng, depth - 1));
      case 4:
        return arena.mk_xor(random_formula(arena, vars, rng, depth - 1),
                            random_formula(arena, vars, rng, depth - 1));
      default:
        return arena.mk_iff(random_formula(arena, vars, rng, depth - 1),
                            random_formula(arena, vars, rng, depth - 1));
    }
  }
};

TEST_P(RandomFormulaTest, EncodingIsEquisatisfiableAndModelsProject) {
  const auto& param = GetParam();
  std::mt19937 rng(param.seed);
  FormulaArena arena;
  std::vector<BoolVar> bool_vars;
  std::vector<Formula> vars;
  for (int i = 0; i < param.num_vars; ++i) {
    bool_vars.push_back(arena.new_bool_var("v" + std::to_string(i)));
    vars.push_back(arena.var(bool_vars.back()));
  }
  Formula f = random_formula(arena, vars, rng, param.depth);

  // Brute-force satisfiability of f.
  bool brute_sat = false;
  for (uint32_t m = 0; m < (1u << param.num_vars); ++m) {
    std::vector<bool> assignment;
    for (int i = 0; i < param.num_vars; ++i) assignment.push_back((m >> i) & 1);
    if (arena.evaluate(f, assignment)) {
      brute_sat = true;
      break;
    }
  }

  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  enc.assert_formula(f);
  bool cnf_sat = solver.solve() == sat::SolveResult::kSat;
  EXPECT_EQ(cnf_sat, brute_sat);

  if (cnf_sat) {
    std::vector<bool> assignment;
    for (int i = 0; i < param.num_vars; ++i) {
      assignment.push_back(enc.model_value(bool_vars[static_cast<size_t>(i)]));
    }
    EXPECT_TRUE(arena.evaluate(f, assignment))
        << "SAT model does not satisfy the source formula: "
        << arena.to_string(f);
  }
}

// Guarded assertion and retirement, as the query planner issues them:
// g => f is satisfiable under {g} iff f is, and once g is retired the
// solver must not have kept any of f — asserting ~f stays satisfiable
// whenever ~f is.
TEST_P(RandomFormulaTest, GuardedAssertionRetiresCleanly) {
  const auto& param = GetParam();
  std::mt19937 rng(param.seed);
  FormulaArena arena;
  std::vector<BoolVar> bool_vars;
  std::vector<Formula> vars;
  for (int i = 0; i < param.num_vars; ++i) {
    bool_vars.push_back(arena.new_bool_var("v" + std::to_string(i)));
    vars.push_back(arena.var(bool_vars.back()));
  }
  const Formula f = random_formula(arena, vars, rng, param.depth);
  const Formula not_f = arena.mk_not(f);
  auto brute_sat = [&](Formula h) {
    for (uint32_t m = 0; m < (1u << param.num_vars); ++m) {
      std::vector<bool> assignment;
      for (int i = 0; i < param.num_vars; ++i) assignment.push_back((m >> i) & 1);
      if (arena.evaluate(h, assignment)) return true;
    }
    return false;
  };
  auto model = [&](const CnfEncoder& enc) {
    std::vector<bool> assignment;
    for (BoolVar v : bool_vars) assignment.push_back(enc.model_value(v));
    return assignment;
  };

  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  const BoolVar g = arena.new_bool_var("g");
  enc.assert_formula(arena.mk_implies(arena.var(g), f));
  const sat::Lit guard = sat::Lit::positive(enc.sat_var(g));
  const bool sat_under_guard = solver.solve({guard}) == sat::SolveResult::kSat;
  EXPECT_EQ(sat_under_guard, brute_sat(f)) << arena.to_string(f);
  if (sat_under_guard) {
    EXPECT_TRUE(arena.evaluate(f, model(enc)));
  }

  solver.add_clause(~guard);
  solver.simplify();
  if (!brute_sat(not_f)) return;
  enc.assert_formula(not_f);
  ASSERT_EQ(solver.solve(), sat::SolveResult::kSat) << arena.to_string(f);
  EXPECT_TRUE(arena.evaluate(not_f, model(enc)));
}

// At-most-one encodings: pairwise and sequential must admit exactly the
// same projected models (n "one true" cases + 1 "none true").
class AmoEncodingTest : public ::testing::TestWithParam<int> {};

TEST_P(AmoEncodingTest, PairwiseAndSequentialAgree) {
  int n = GetParam();
  for (bool sequential : {false, true}) {
    FormulaArena arena;
    sat::Solver solver;
    CnfEncoder enc(arena, solver);
    std::vector<BoolVar> vars;
    std::vector<Formula> fs;
    for (int i = 0; i < n; ++i) {
      vars.push_back(arena.new_bool_var("x" + std::to_string(i)));
      fs.push_back(arena.var(vars.back()));
    }
    Formula amo = sequential ? arena.mk_at_most_one_sequential(fs)
                             : arena.mk_at_most_one_pairwise(fs);
    enc.assert_formula(amo);
    std::vector<sat::Var> projection;
    for (BoolVar v : vars) projection.push_back(enc.sat_var(v));
    EXPECT_EQ(solver.count_models(projection), static_cast<uint64_t>(n) + 1)
        << (sequential ? "sequential" : "pairwise") << " n=" << n;
  }
}

TEST_P(AmoEncodingTest, ExactlyOneDispatchCountsModels) {
  int n = GetParam();
  FormulaArena arena;
  sat::Solver solver;
  CnfEncoder enc(arena, solver);
  std::vector<BoolVar> vars;
  std::vector<Formula> fs;
  for (int i = 0; i < n; ++i) {
    vars.push_back(arena.new_bool_var("x" + std::to_string(i)));
    fs.push_back(arena.var(vars.back()));
  }
  enc.assert_formula(arena.mk_exactly_one(fs));
  std::vector<sat::Var> projection;
  for (BoolVar v : vars) projection.push_back(enc.sat_var(v));
  EXPECT_EQ(solver.count_models(projection), static_cast<uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AmoEncodingTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 12, 20));

std::vector<RandomFormulaCase> make_cases() {
  std::vector<RandomFormulaCase> cases;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    cases.push_back({seed, 5, 6});
    cases.push_back({seed + 1000, 8, 8});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, RandomFormulaTest,
                         ::testing::ValuesIn(make_cases()));

}  // namespace
}  // namespace llhsc::logic
