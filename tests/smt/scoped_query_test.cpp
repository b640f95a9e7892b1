// Scoped queries on one solver instance, as the query planner and the lift
// engine pose them: push, add a query, check, pop. A seeded mix of
// formula-(7) overlap bodies (paper §IV-C), syntactic range / enum / const
// facts and random bit-vector atoms runs on every backend, and each verdict
// must match an arithmetic or brute-force oracle and a fresh solver's.
//
// On the builtin stack (logic::CnfEncoder over sat::Solver) the suite also
// pins what a scope costs: N scoped queries on one solver make no more
// propagations and conflicts than the same queries on N fresh solvers, and
// after K push/add/check/pop cycles the live variables and the clause arena
// are exactly as large as after one.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "logic/bitvector.hpp"
#include "logic/cnf.hpp"
#include "logic/formula.hpp"
#include "sat/solver.hpp"
#include "smt/solver.hpp"

namespace llhsc::smt {
namespace {

using logic::BvArena;
using logic::BvTerm;
using logic::Formula;
using logic::FormulaArena;

// The two small shared variables x and y, and the top-level fact y <= kFact.
constexpr uint32_t kSmallWidth = 6;
constexpr uint64_t kSmallValues = uint64_t{1} << kSmallWidth;
constexpr uint64_t kFact = 40;

// -- random bit-vector expressions over x and y, buildable and evaluable --

struct Term {
  enum Kind { kX, kY, kConst, kAdd } kind;
  uint64_t value = 0;  // kConst
  std::shared_ptr<Term> a, b;
};

struct Pred {
  enum Kind { kAtom, kNot, kAnd, kOr } kind;
  logic::BvPred atom = logic::BvPred::kEq;
  std::shared_ptr<Term> lhs, rhs;
  std::shared_ptr<Pred> p, q;
};

uint64_t eval(const Term& t, uint64_t x, uint64_t y) {
  switch (t.kind) {
    case Term::kX: return x;
    case Term::kY: return y;
    case Term::kConst: return t.value;
    case Term::kAdd: return (eval(*t.a, x, y) + eval(*t.b, x, y)) % kSmallValues;
  }
  return 0;
}

bool eval(const Pred& p, uint64_t x, uint64_t y) {
  switch (p.kind) {
    case Pred::kNot: return !eval(*p.p, x, y);
    case Pred::kAnd: return eval(*p.p, x, y) && eval(*p.q, x, y);
    case Pred::kOr: return eval(*p.p, x, y) || eval(*p.q, x, y);
    case Pred::kAtom: break;
  }
  const uint64_t a = eval(*p.lhs, x, y), b = eval(*p.rhs, x, y);
  switch (p.atom) {
    case logic::BvPred::kEq: return a == b;
    case logic::BvPred::kUlt: return a < b;
    case logic::BvPred::kUle: return a <= b;
    case logic::BvPred::kUaddOverflow: return a + b >= kSmallValues;
  }
  return false;
}

std::shared_ptr<Term> random_term(std::mt19937& rng, int depth) {
  auto t = std::make_shared<Term>();
  switch (std::uniform_int_distribution<int>(0, depth > 0 ? 3 : 2)(rng)) {
    case 0: t->kind = Term::kX; break;
    case 1: t->kind = Term::kY; break;
    case 2:
      t->kind = Term::kConst;
      t->value = std::uniform_int_distribution<uint64_t>(0, kSmallValues - 1)(rng);
      break;
    default:
      t->kind = Term::kAdd;
      t->a = random_term(rng, depth - 1);
      t->b = random_term(rng, depth - 1);
      break;
  }
  return t;
}

std::shared_ptr<Pred> random_pred(std::mt19937& rng, int depth) {
  auto p = std::make_shared<Pred>();
  const int k = std::uniform_int_distribution<int>(0, depth > 0 ? 3 : 0)(rng);
  if (k == 0) {
    p->kind = Pred::kAtom;
    p->atom = static_cast<logic::BvPred>(std::uniform_int_distribution<int>(0, 3)(rng));
    p->lhs = random_term(rng, 1);
    p->rhs = random_term(rng, 1);
  } else {
    p->kind = k == 1 ? Pred::kNot : k == 2 ? Pred::kAnd : Pred::kOr;
    p->p = random_pred(rng, depth - 1);
    if (k != 1) p->q = random_pred(rng, depth - 1);
  }
  return p;
}

// -- queries --

/// The shared small variables of one solver (made on first use).
struct Vars {
  BvTerm x, y;
};

/// One scoped query: its assertions, built into a given solver's arenas,
/// and its verdict under the top-level fact.
struct Query {
  std::string what;
  bool sat = false;
  std::function<std::vector<Formula>(FormulaArena&, BvArena&, const Vars&)> build;
};

BvTerm build(BvArena& bv, const Vars& v, const Term& t) {
  switch (t.kind) {
    case Term::kX: return v.x;
    case Term::kY: return v.y;
    case Term::kConst: return bv.bv_const(t.value, kSmallWidth);
    case Term::kAdd: return bv.bv_add(build(bv, v, *t.a), build(bv, v, *t.b));
  }
  return {};
}

Formula build(FormulaArena& fa, BvArena& bv, const Vars& v, const Pred& p) {
  switch (p.kind) {
    case Pred::kNot: return fa.mk_not(build(fa, bv, v, *p.p));
    case Pred::kAnd: return fa.mk_and(build(fa, bv, v, *p.p), build(fa, bv, v, *p.q));
    case Pred::kOr: return fa.mk_or(build(fa, bv, v, *p.p), build(fa, bv, v, *p.q));
    case Pred::kAtom: break;
  }
  const BvTerm a = build(bv, v, *p.lhs), b = build(bv, v, *p.rhs);
  switch (p.atom) {
    case logic::BvPred::kEq: return bv.eq(a, b);
    case logic::BvPred::kUlt: return bv.ult(a, b);
    case logic::BvPred::kUle: return bv.ule(a, b);
    case logic::BvPred::kUaddOverflow: return bv.uadd_overflow(a, b);
  }
  return {};
}

/// Formula (7): a fresh 64-bit witness inside both regions, optionally
/// pinned to the larger base. Regions never wrap.
Query overlap_body(std::mt19937& rng, int index) {
  auto region = [&] {
    const uint64_t base = std::uniform_int_distribution<uint64_t>(0, 64)(rng) << 12;
    const uint64_t size = std::uniform_int_distribution<uint64_t>(1, 16)(rng) << 10;
    return std::pair{base | 0x80000000ull, size};
  };
  const auto [b1, s1] = region();
  const auto [b2, s2] = region();
  const bool pinned = (rng() & 1) != 0;
  Query q;
  q.what = "overlap " + std::to_string(index);
  q.sat = std::max(b1, b2) < std::min(b1 + s1, b2 + s2);
  q.build = [=](FormulaArena& fa, BvArena& bv, const Vars&) {
    constexpr uint32_t kWidth = 64;
    const BvTerm w = bv.bv_var("w" + std::to_string(index), kWidth);
    auto in = [&](uint64_t base, uint64_t size) {
      const BvTerm lo = bv.bv_const(base, kWidth);
      const BvTerm hi = bv.bv_add(lo, bv.bv_const(size, kWidth));
      return fa.mk_and(bv.uge(w, lo), bv.ult(w, hi));
    };
    std::vector<Formula> fs{in(b1, s1), in(b2, s2)};
    if (pinned) fs.push_back(bv.eq(w, bv.bv_const(std::max(b1, b2), kWidth)));
    return fs;
  };
  return q;
}

/// A syntactic fact about a property value pinned in x: out of [lo, hi],
/// not in an enum, or not equal to a const.
Query syntactic_fact(std::mt19937& rng) {
  std::uniform_int_distribution<uint64_t> val(0, kSmallValues - 1);
  const uint64_t v = val(rng);
  Query q;
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0: {
      uint64_t lo = val(rng), hi = val(rng);
      if (lo > hi) std::swap(lo, hi);
      q.what = "range " + std::to_string(v);
      q.sat = v < lo || v > hi;
      q.build = [=](FormulaArena& fa, BvArena& bv, const Vars& vars) {
        const Formula out = fa.mk_or(bv.ult(vars.x, bv.bv_const(lo, kSmallWidth)),
                                     bv.ugt(vars.x, bv.bv_const(hi, kSmallWidth)));
        return std::vector<Formula>{bv.eq(vars.x, bv.bv_const(v, kSmallWidth)), out};
      };
      break;
    }
    case 1: {
      std::vector<uint64_t> allowed{val(rng), val(rng), val(rng)};
      if ((rng() & 1) != 0) allowed.push_back(v);
      q.what = "enum " + std::to_string(v);
      q.sat = std::find(allowed.begin(), allowed.end(), v) == allowed.end();
      q.build = [=](FormulaArena& fa, BvArena& bv, const Vars& vars) {
        std::vector<Formula> any;
        for (uint64_t a : allowed) any.push_back(bv.eq(vars.x, bv.bv_const(a, kSmallWidth)));
        return std::vector<Formula>{bv.eq(vars.x, bv.bv_const(v, kSmallWidth)),
                                    fa.mk_not(fa.mk_or(any))};
      };
      break;
    }
    default: {
      const uint64_t c = (rng() & 1) != 0 ? v : val(rng);
      q.what = "const " + std::to_string(v);
      q.sat = v != c;
      q.build = [=](FormulaArena&, BvArena& bv, const Vars& vars) {
        return std::vector<Formula>{bv.eq(vars.x, bv.bv_const(v, kSmallWidth)),
                                    bv.ne(vars.x, bv.bv_const(c, kSmallWidth))};
      };
      break;
    }
  }
  return q;
}

/// Random atoms over x and y, decided by brute force under y <= kFact.
Query random_atoms(std::mt19937& rng) {
  const std::shared_ptr<Pred> p = random_pred(rng, 3);
  Query q;
  q.what = "atoms";
  for (uint64_t x = 0; x < kSmallValues && !q.sat; ++x) {
    for (uint64_t y = 0; y <= kFact && !q.sat; ++y) q.sat = eval(*p, x, y);
  }
  q.build = [=](FormulaArena& fa, BvArena& bv, const Vars& vars) {
    return std::vector<Formula>{build(fa, bv, vars, *p)};
  };
  return q;
}

std::vector<Query> make_queries(uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) {
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0: queries.push_back(overlap_body(rng, i)); break;
      case 1: queries.push_back(syntactic_fact(rng)); break;
      default: queries.push_back(random_atoms(rng)); break;
    }
  }
  return queries;
}

/// A facade solver with x, y and the top-level fact.
struct FacadeInstance {
  explicit FacadeInstance(Backend backend) : solver(backend) {
    vars.x = solver.bv_var("x", kSmallWidth);
    vars.y = solver.bv_var("y", kSmallWidth);
    solver.add(solver.bitvectors().ule(
        vars.y, solver.bitvectors().bv_const(kFact, kSmallWidth)));
  }
  CheckResult scoped_check(const Query& q) {
    solver.push();
    for (Formula f : q.build(solver.formulas(), solver.bitvectors(), vars)) {
      solver.add(f);
    }
    const CheckResult r = solver.check();
    if (r == CheckResult::kSat) {
      // The shared variables' model respects the top-level fact.
      EXPECT_LE(solver.model_bv(vars.y), kFact) << q.what;
    }
    solver.pop();
    return r;
  }
  Solver solver;
  Vars vars;
};

class ScopedQueryTest
    : public ::testing::TestWithParam<std::tuple<Backend, uint32_t>> {};

// Each verdict on the shared solver matches the oracle and a fresh solver's;
// every fourth query also runs nested, its first half in an outer scope.
TEST_P(ScopedQueryTest, VerdictsMatchOracleAndFreshSolver) {
  const auto [backend, seed] = GetParam();
  FacadeInstance shared(backend);
  const std::vector<Query> queries = make_queries(seed, 40);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const CheckResult want = q.sat ? CheckResult::kSat : CheckResult::kUnsat;
    ASSERT_EQ(shared.scoped_check(q), want) << i << ": " << q.what;
    FacadeInstance fresh(backend);
    ASSERT_EQ(fresh.scoped_check(q), want) << i << ": " << q.what << " (fresh)";
    if (i % 4 != 3) continue;
    Solver& s = shared.solver;
    const std::vector<Formula> fs =
        q.build(s.formulas(), s.bitvectors(), shared.vars);
    s.push();
    for (size_t k = 0; k < fs.size() / 2; ++k) s.add(fs[k]);
    s.push();
    for (size_t k = fs.size() / 2; k < fs.size(); ++k) s.add(fs[k]);
    ASSERT_EQ(s.check(), want) << i << ": " << q.what << " (nested)";
    s.pop();
    ASSERT_EQ(s.check(), CheckResult::kSat) << i << ": outer half alone";
    s.pop();
  }
  EXPECT_EQ(shared.solver.check(), CheckResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndSeeds, ScopedQueryTest,
    ::testing::Combine(::testing::ValuesIn(all_backends()),
                       ::testing::Range(1u, 6u)),
    [](const ::testing::TestParamInfo<ScopedQueryTest::ParamType>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// -- the builtin stack's cost of a scope --

/// logic::CnfEncoder over sat::Solver, scoped the way the builtin backend
/// scopes them: assert under a fresh guard, solve assuming it, retire it.
/// The fact y <= kFact is asserted at the top level or, as the query
/// planner's solvers hold nothing outside a scope, inside every scope.
struct BuiltinStack {
  explicit BuiltinStack(bool top_level_fact)
      : bv(fa), enc(fa, sat, &bv), scoped_fact(!top_level_fact) {
    vars.x = bv.bv_var("x", kSmallWidth);
    vars.y = bv.bv_var("y", kSmallWidth);
    fact = bv.ule(vars.y, bv.bv_const(kFact, kSmallWidth));
    if (top_level_fact) enc.assert_formula(fact);
  }
  /// With `check_first`, the guard is first encoded by a check before its
  /// scope asserts anything, as Solver::enumerate does.
  sat::SolveResult scoped_check(const Query& q, bool check_first = false) {
    const Formula guard = fa.var(fa.new_bool_var("scope"));
    if (check_first && sat.solve({enc.encode(guard)}) != sat::SolveResult::kSat) {
      ADD_FAILURE() << "the guard alone must be satisfiable";
    }
    if (scoped_fact) enc.assert_formula(fact, guard);
    for (Formula f : q.build(fa, bv, vars)) enc.assert_formula(f, guard);
    const sat::SolveResult r = sat.solve({enc.encode(guard)});
    enc.retire(guard);
    return r;
  }
  FormulaArena fa;
  BvArena bv;
  sat::Solver sat;
  logic::CnfEncoder enc;
  Vars vars;
  Formula fact;
  bool scoped_fact;
};

class ScopedQueryCostTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ScopedQueryCostTest, SharedSolverCostsNoMoreThanFreshSolvers) {
  const std::vector<Query> queries = make_queries(GetParam(), 40);
  BuiltinStack shared(/*top_level_fact=*/false);
  uint64_t fresh_propagations = 0, fresh_conflicts = 0;
  const uint64_t shared_propagations = shared.sat.stats().propagations;
  for (const Query& q : queries) {
    const auto want = q.sat ? sat::SolveResult::kSat : sat::SolveResult::kUnsat;
    ASSERT_EQ(shared.scoped_check(q), want) << q.what;
    BuiltinStack fresh(/*top_level_fact=*/false);
    const uint64_t before = fresh.sat.stats().propagations;
    ASSERT_EQ(fresh.scoped_check(q), want) << q.what << " (fresh)";
    fresh_propagations += fresh.sat.stats().propagations - before;
    fresh_conflicts += fresh.sat.stats().conflicts;
  }
  EXPECT_LE(shared.sat.stats().propagations - shared_propagations,
            fresh_propagations);
  EXPECT_LE(shared.sat.stats().conflicts, fresh_conflicts);
}

TEST_P(ScopedQueryCostTest, LiveVariablesAndArenaDoNotGrowWithCycles) {
  const std::vector<Query> queries = make_queries(GetParam(), 8);
  for (const Query& q : queries) {
    BuiltinStack stack(/*top_level_fact=*/true);
    const auto want = q.sat ? sat::SolveResult::kSat : sat::SolveResult::kUnsat;
    ASSERT_EQ(stack.scoped_check(q), want) << q.what;
    auto live_words = [&] {
      return stack.sat.arena_size() - stack.sat.arena_garbage();
    };
    const int live = stack.sat.num_live_vars();
    const int slots = stack.sat.num_vars();
    const size_t arena = live_words();
    for (int k = 0; k < 16; ++k) {
      ASSERT_EQ(stack.scoped_check(q, /*check_first=*/k % 2 == 1), want)
          << q.what << " cycle " << k;
      EXPECT_LE(stack.sat.arena_garbage(), live_words()) << q.what;
    }
    EXPECT_EQ(stack.sat.num_live_vars(), live) << q.what;
    EXPECT_EQ(stack.sat.num_vars(), slots) << q.what;
    EXPECT_EQ(live_words(), arena) << q.what;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopedQueryCostTest, ::testing::Range(1u, 6u));

}  // namespace
}  // namespace llhsc::smt
