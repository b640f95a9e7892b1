// SMT facade tests — parameterized over both backends (builtin CDCL
// bit-blasting and the native Z3 API), so every behaviour is checked
// differentially. The paper's semantic checker scenarios (§IV-C memory
// overlap) appear here in miniature.
#include "smt/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <set>

namespace llhsc::smt {
namespace {

class SmtBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(SmtBackendTest, TrivialSat) {
  Solver s(GetParam());
  s.add(s.formulas().make_true());
  EXPECT_EQ(s.check(), CheckResult::kSat);
}

TEST_P(SmtBackendTest, TrivialUnsat) {
  Solver s(GetParam());
  s.add(s.formulas().make_false());
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
}

TEST_P(SmtBackendTest, BooleanModelExtraction) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  s.add(a);
  s.add(fa.mk_not(b));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_TRUE(s.model_bool(a));
  EXPECT_FALSE(s.model_bool(b));
}

TEST_P(SmtBackendTest, PushPopScopes) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  s.add(a);
  EXPECT_EQ(s.check(), CheckResult::kSat);
  s.push();
  s.add(fa.mk_not(a));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  s.pop();
  EXPECT_EQ(s.check(), CheckResult::kSat);
}

TEST_P(SmtBackendTest, NestedScopes) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  s.push();
  s.add(a);
  s.push();
  s.add(fa.mk_not(a));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  s.pop();
  EXPECT_EQ(s.check(), CheckResult::kSat);
  s.add(b);
  EXPECT_EQ(s.check(), CheckResult::kSat);
  s.pop();
  // Outside all scopes: no constraints remain.
  s.add(fa.mk_not(a));
  EXPECT_EQ(s.check(), CheckResult::kSat);
}

TEST_P(SmtBackendTest, CheckAssuming) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  s.add(fa.mk_implies(a, b));
  std::vector<logic::Formula> assume1{a};
  EXPECT_EQ(s.check_assuming(assume1), CheckResult::kSat);
  EXPECT_TRUE(s.model_bool(b));
  std::vector<logic::Formula> assume2{a, fa.mk_not(b)};
  EXPECT_EQ(s.check_assuming(assume2), CheckResult::kUnsat);
  // No pollution of the base formula.
  EXPECT_EQ(s.check(), CheckResult::kSat);
}

TEST_P(SmtBackendTest, BvEquationSolvable) {
  Solver s(GetParam());
  auto& bv = s.bitvectors();
  auto x = s.bv_var("x", 32);
  // x + 5 == 12  =>  x == 7
  s.add(bv.eq(bv.bv_add(x, bv.bv_const(5, 32)), bv.bv_const(12, 32)));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  EXPECT_EQ(s.model_bv(x), 7u);
  // A compound term is evaluated over the same model.
  EXPECT_EQ(s.model_bv(bv.bv_add(x, bv.bv_const(5, 32))), 12u);
}

TEST_P(SmtBackendTest, BvRangeConflict) {
  Solver s(GetParam());
  auto& bv = s.bitvectors();
  auto x = s.bv_var("x", 16);
  s.add(bv.ult(x, bv.bv_const(10, 16)));
  s.add(bv.ugt(x, bv.bv_const(20, 16)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
}

// The paper's running-example collision in miniature: memory bank at
// [0x60000000, 0x80000000) and a UART at 0x60000000 must be detected as
// overlapping; a UART at 0x20000000 must not.
TEST_P(SmtBackendTest, MemoryOverlapDetection) {
  for (uint64_t uart_base : {0x60000000ull, 0x20000000ull}) {
    Solver s(GetParam());
    auto& fa = s.formulas();
    auto& bv = s.bitvectors();
    auto b1 = bv.bv_const(0x60000000, 64);
    auto s1 = bv.bv_const(0x20000000, 64);
    auto b2 = bv.bv_const(uart_base, 64);
    auto s2 = bv.bv_const(0x1000, 64);
    // Overlap: b1 < b2 + s2 && b2 < b1 + s1
    logic::Formula overlap = fa.mk_and(bv.ult(b1, bv.bv_add(b2, s2)),
                                       bv.ult(b2, bv.bv_add(b1, s1)));
    s.add(overlap);
    bool expect_overlap = uart_base == 0x60000000ull;
    EXPECT_EQ(s.check(),
              expect_overlap ? CheckResult::kSat : CheckResult::kUnsat)
        << "uart_base=" << std::hex << uart_base;
  }
}

TEST_P(SmtBackendTest, SymbolicOverlapWitness) {
  // Find an address x inside both [0x1000, 0x2000) and [0x1800, 0x2800).
  Solver s(GetParam());
  auto& fa = s.formulas();
  auto& bv = s.bitvectors();
  auto x = s.bv_var("x", 32);
  auto in = [&](uint64_t base, uint64_t size) {
    return fa.mk_and(bv.uge(x, bv.bv_const(base, 32)),
                     bv.ult(x, bv.bv_const(base + size, 32)));
  };
  s.add(in(0x1000, 0x1000));
  s.add(in(0x1800, 0x1000));
  ASSERT_EQ(s.check(), CheckResult::kSat);
  uint64_t witness = s.model_bv(x);
  EXPECT_GE(witness, 0x1800u);
  EXPECT_LT(witness, 0x2000u);
}

TEST_P(SmtBackendTest, UnsatCoreOverAssumptions) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  logic::Formula c = s.bool_var("c");
  s.add(fa.mk_not(fa.mk_and(a, b)));  // a and b conflict
  std::vector<logic::Formula> assume{a, b, c};
  ASSERT_EQ(s.check_assuming(assume), CheckResult::kUnsat);
  std::vector<logic::Formula> core = s.unsat_core();
  ASSERT_FALSE(core.empty());
  // Every core element is one of the assumptions, and a or b is present.
  bool has_ab = false;
  for (logic::Formula f : core) {
    bool is_assumption = f == a || f == b || f == c;
    EXPECT_TRUE(is_assumption);
    has_ab = has_ab || f == a || f == b;
  }
  EXPECT_TRUE(has_ab);
}

TEST_P(SmtBackendTest, UnsatCoreWithNegatedAssumptions) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  s.add(a);
  std::vector<logic::Formula> assume{fa.mk_not(a)};
  ASSERT_EQ(s.check_assuming(assume), CheckResult::kUnsat);
  std::vector<logic::Formula> core = s.unsat_core();
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0], fa.mk_not(a));
}

TEST_P(SmtBackendTest, StatsCountChecks) {
  Solver s(GetParam());
  s.add(s.formulas().make_true());
  s.check();
  s.check();
  EXPECT_EQ(s.stats().checks, 2u);
  EXPECT_EQ(s.stats().sat_results, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SmtBackendTest,
                         ::testing::ValuesIn(all_backends()),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(to_string(info.param));
                         });

// Differential property test: random mixed bool/bv instances must get the
// same verdict from both backends.
class DifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DifferentialTest, BackendsAgree) {
  std::mt19937_64 rng(GetParam());
  // Build the same random instance in both solvers.
  auto build_and_check = [&](Backend backend, uint64_t seed) {
    std::mt19937_64 local(seed);
    Solver s(backend);
    auto& fa = s.formulas();
    auto& bv = s.bitvectors();
    auto x = s.bv_var("x", 12);
    auto y = s.bv_var("y", 12);
    std::uniform_int_distribution<uint64_t> val(0, (1 << 12) - 1);
    std::uniform_int_distribution<int> kind(0, 3);
    for (int i = 0; i < 6; ++i) {
      logic::Formula f = fa.make_true();
      uint64_t c = val(local);
      switch (kind(local)) {
        case 0: f = bv.ult(x, bv.bv_const(c, 12)); break;
        case 1: f = bv.uge(y, bv.bv_const(c, 12)); break;
        case 2: f = bv.eq(bv.bv_add(x, y), bv.bv_const(c, 12)); break;
        default: f = fa.mk_not(bv.eq(x, y)); break;
      }
      s.add(f);
    }
    return s.check();
  };
  uint64_t seed = rng();
  CheckResult builtin = build_and_check(Backend::kBuiltin, seed);
  CheckResult z3 = build_and_check(Backend::kZ3, seed);
  EXPECT_EQ(builtin, z3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(1u, 21u));

// -- brute-force oracle for the scope and enumeration properties --

// A literal over a handful of test variables, and a clause of them.
struct TestLit {
  int var;
  bool positive;
};
using TestClause = std::vector<TestLit>;

bool satisfies(const std::vector<TestClause>& clauses, uint32_t assignment) {
  return std::all_of(clauses.begin(), clauses.end(), [&](const TestClause& c) {
    return std::any_of(c.begin(), c.end(), [&](TestLit l) {
      return (((assignment >> l.var) & 1u) != 0) == l.positive;
    });
  });
}

bool satisfiable(const std::vector<TestClause>& clauses, int num_vars) {
  for (uint32_t m = 0; m < (1u << num_vars); ++m) {
    if (satisfies(clauses, m)) return true;
  }
  return false;
}

logic::Formula literal(Solver& s, const std::vector<logic::Formula>& vars,
                       TestLit l) {
  return l.positive ? vars[l.var] : s.formulas().mk_not(vars[l.var]);
}

logic::Formula clause_formula(Solver& s,
                              const std::vector<logic::Formula>& vars,
                              const TestClause& c) {
  std::vector<logic::Formula> lits;
  for (TestLit l : c) lits.push_back(literal(s, vars, l));
  return s.formulas().mk_or(lits);
}

uint32_t model_of(Solver& s, const std::vector<logic::Formula>& vars) {
  uint32_t m = 0;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (s.model_bool(vars[i])) m |= 1u << i;
  }
  return m;
}

// Random interleavings of push, pop, scoped assertions and checks under
// random assumptions, on every backend. Each verdict must match a brute-force
// oracle over the assertions still in force; each model must satisfy them;
// each unsat core must be a subset of the caller's assumptions (so never a
// scope guard) and be unsat again when re-checked.
class ScopeStressTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ScopeStressTest, BackendsAgreeUnderRandomScoping) {
  constexpr int kVars = 6;
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(std::string(to_string(backend)));
    std::mt19937 rng(GetParam());
    Solver s(backend);
    std::vector<logic::Formula> vars;
    for (int i = 0; i < kVars; ++i) {
      vars.push_back(s.bool_var("v" + std::to_string(i)));
    }
    std::uniform_int_distribution<int> op(0, 11);
    std::uniform_int_distribution<int> pick(0, kVars - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> num_assumptions(0, 3);
    auto random_lit = [&] { return TestLit{pick(rng), coin(rng) == 1}; };
    // scopes[0] is the top level; scopes[k] holds what scope k asserted.
    std::vector<std::vector<TestClause>> scopes(1);
    auto check = [&](int step) {
      std::vector<TestClause> in_force;
      for (const auto& level : scopes) {
        in_force.insert(in_force.end(), level.begin(), level.end());
      }
      std::vector<logic::Formula> assume;
      for (int n = num_assumptions(rng); n > 0; --n) {
        const TestLit l = random_lit();
        assume.push_back(literal(s, vars, l));
        in_force.push_back({l});
      }
      const CheckResult want = satisfiable(in_force, kVars)
                                   ? CheckResult::kSat
                                   : CheckResult::kUnsat;
      ASSERT_EQ(s.check_assuming(assume), want) << "step " << step;
      if (want == CheckResult::kSat) {
        EXPECT_TRUE(satisfies(in_force, model_of(s, vars))) << "step " << step;
        return;
      }
      const std::vector<logic::Formula> core = s.unsat_core();
      for (logic::Formula f : core) {
        EXPECT_NE(std::find(assume.begin(), assume.end(), f), assume.end())
            << "step " << step << ": core element is not an assumption";
      }
      EXPECT_EQ(s.check_assuming(core), CheckResult::kUnsat)
          << "step " << step << ": the core alone must stay unsat";
    };
    for (int step = 0; step < 80; ++step) {
      const int o = op(rng);
      if (o < 3) {
        s.push();
        scopes.emplace_back();
      } else if (o < 5 && scopes.size() > 1) {
        s.pop();
        scopes.pop_back();
      } else if (o < 8) {
        const TestClause c{random_lit(), random_lit()};
        s.add(clause_formula(s, vars, c));
        scopes.back().push_back(c);
      } else {
        check(step);
      }
    }
    while (scopes.size() > 1) {
      s.pop();
      scopes.pop_back();
    }
    check(80);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopeStressTest, ::testing::Range(1u, 41u));

// Solver::enumerate against brute force on random instances, every backend:
// the projected model set, `capped` exactly when one more model exists,
// models + 1 checks unless the callback stopped the loop, the full model
// readable inside the callback, and no blocking clause left behind.
class EnumerateTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EnumerateTest, MatchesBruteForce) {
  constexpr int kVars = 6;
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(std::string(to_string(backend)));
    std::mt19937 rng(GetParam());
    Solver s(backend);
    std::vector<logic::Formula> vars;
    for (int i = 0; i < kVars; ++i) {
      vars.push_back(s.bool_var("v" + std::to_string(i)));
    }
    std::uniform_int_distribution<int> pick(0, kVars - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    auto random_lit = [&] { return TestLit{pick(rng), coin(rng) == 1}; };

    std::vector<TestClause> clauses;
    for (int n = std::uniform_int_distribution<int>(0, 8)(rng); n > 0; --n) {
      clauses.push_back({random_lit(), random_lit(), random_lit()});
      s.add(clause_formula(s, vars, clauses.back()));
    }
    std::vector<logic::Formula> assume;
    for (int n = std::uniform_int_distribution<int>(0, 2)(rng); n > 0; --n) {
      const TestLit l = random_lit();
      assume.push_back(literal(s, vars, l));
      clauses.push_back({l});
    }
    std::vector<int> order{0, 1, 2, 3, 4, 5};
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(std::uniform_int_distribution<size_t>(0, 4)(rng));
    std::vector<logic::Formula> projection;
    for (int v : order) projection.push_back(vars[v]);
    const uint64_t caps[] = {0, 1, 2, 3, 5, 64, UINT64_MAX};
    const uint64_t cap = caps[std::uniform_int_distribution<size_t>(0, 6)(rng)];
    // 0: never stop; otherwise the callback stops after that many models.
    const uint64_t stop_after = std::uniform_int_distribution<uint64_t>(0, 4)(rng);

    std::set<std::vector<bool>> expected;
    for (uint32_t m = 0; m < (1u << kVars); ++m) {
      if (!satisfies(clauses, m)) continue;
      std::vector<bool> key;
      for (int v : order) key.push_back(((m >> v) & 1u) != 0);
      expected.insert(key);
    }

    std::set<std::vector<bool>> seen;
    uint64_t calls = 0;
    const uint64_t checks_before = s.stats().checks;
    const Solver::Enumeration e = s.enumerate(
        projection, assume, cap, [&](const std::vector<bool>& values) {
          ++calls;
          EXPECT_TRUE(seen.insert(values).second) << "model repeated";
          EXPECT_TRUE(expected.count(values)) << "not a projected model";
          const uint32_t m = model_of(s, vars);
          EXPECT_TRUE(satisfies(clauses, m));
          for (size_t k = 0; k < order.size(); ++k) {
            EXPECT_EQ(((m >> order[k]) & 1u) != 0, values[k]);
          }
          return stop_after == 0 || calls < stop_after;
        });
    const uint64_t checks = s.stats().checks - checks_before;

    EXPECT_EQ(e.models, calls);
    if (stop_after != 0 && calls == stop_after) {
      EXPECT_EQ(checks, e.models);
      EXPECT_FALSE(e.capped);
    } else {
      EXPECT_EQ(checks, e.models + 1);
      EXPECT_EQ(e.models, std::min<uint64_t>(expected.size(), cap));
      EXPECT_EQ(e.capped, expected.size() > cap);
      if (!e.capped) {
        EXPECT_EQ(seen, expected);
      }
    }
    // The enumeration's scope is closed: its blocking clauses bind nothing.
    EXPECT_EQ(s.check_assuming(assume),
              expected.empty() ? CheckResult::kUnsat : CheckResult::kSat);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerateTest, ::testing::Range(1u, 31u));

// Regression: a base-level unsat verdict must survive repeated checks. The
// builtin backend's CDCL core used to consume its level-0 trail on the way
// to the first kUnsat and report a bogus kSat on the next check.
TEST_P(SmtBackendTest, RepeatedCheckOfUnsatBaseIsStable) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  s.add(fa.mk_or(a, b));
  s.add(fa.mk_or(a, fa.mk_not(b)));
  s.add(fa.mk_or(fa.mk_not(a), b));
  s.add(fa.mk_or(fa.mk_not(a), fa.mk_not(b)));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
}

// Regression for the same defect through the scope API: the exact
// push/add/check/pop/add/check interleaving the semantic checker issues.
TEST_P(SmtBackendTest, AddAfterPopOfUnsatScope) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  s.push();
  s.add(a);
  s.add(fa.mk_not(a));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  s.pop();
  s.add(b);
  EXPECT_EQ(s.check(), CheckResult::kSat);
  EXPECT_TRUE(s.model_bool(b));
  s.push();
  s.add(fa.mk_not(b));
  EXPECT_EQ(s.check(), CheckResult::kUnsat);
  s.pop();
  s.add(fa.mk_or(a, b));
  EXPECT_EQ(s.check(), CheckResult::kSat);
}

// An expired deadline degrades a query gracefully without touching the
// asserted formula. The builtin solver polls the deadline deterministically
// (at entry, then decimated), so it must answer kUnknown; z3's timeout
// parameter is advisory — its timer thread can starve under load and the
// check may still land a verdict. The instance is satisfiable (the constant
// is odd, so any odd x determines a y mod 2^64), which pins what that
// verdict may be: never kUnsat.
TEST_P(SmtBackendTest, ExpiredDeadlineDegradesGracefully) {
  Solver s(GetParam());
  auto& bv = s.bitvectors();
  auto x = s.bv_var("x", 64);
  auto y = s.bv_var("y", 64);
  // 64-bit factoring: far beyond a 0ms budget on any backend.
  s.add(bv.eq(bv.bv_mul(x, y), bv.bv_const(0xffffffffffffffc5ull, 64)));
  s.add(bv.ugt(x, bv.bv_const(1, 64)));
  s.add(bv.ugt(y, bv.bv_const(1, 64)));
  s.set_deadline(support::Deadline::after_ms(0));
  const CheckResult r = s.check();
  if (GetParam() == Backend::kBuiltin) {
    EXPECT_EQ(r, CheckResult::kUnknown);
  } else {
    EXPECT_NE(r, CheckResult::kUnsat);
  }
  if (r == CheckResult::kUnknown) {
    EXPECT_EQ(s.stats().unknown_results, 1u);
  }
}

// A hard query under a small budget must come back kUnknown in roughly the
// budgeted time — a pathological instance degrades into a visible timeout,
// never a hang. The instance is 28-bit multiplication commutativity, which
// bit-blasted CDCL cannot decide quickly (Z3 rewrites it away, so this is
// builtin-only).
TEST(SmtDeadline, HardQueryTerminatesNearTheBudget) {
  Solver s(Backend::kBuiltin);
  auto& fa = s.formulas();
  auto& bv = s.bitvectors();
  auto x = s.bv_var("x", 28);
  auto y = s.bv_var("y", 28);
  s.add(fa.mk_not(bv.eq(bv.bv_mul(x, y), bv.bv_mul(y, x))));
  s.set_deadline(support::Deadline::after_ms(200));
  auto t0 = std::chrono::steady_clock::now();
  CheckResult r = s.check();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_EQ(r, CheckResult::kUnknown);
  // ~2x the 200ms budget; generous slack for sanitizer-instrumented runs.
  EXPECT_LT(ms, 2500.0);
}

}  // namespace
}  // namespace llhsc::smt
