// SMT facade tests — parameterized over both backends (builtin CDCL
// bit-blasting and the native Z3 API), so every behaviour is checked
// differentially. The paper's semantic checker scenarios (§IV-C memory
// overlap) appear here in miniature.
#include "smt/solver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <random>

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

TEST_P(SmtBackendTest, MinimalCoreIsMinimal) {
  Solver s(GetParam());
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  logic::Formula c = s.bool_var("c");
  logic::Formula d = s.bool_var("d");
  s.add(fa.mk_implies(a, fa.mk_not(b)));  // a ^ b conflict
  std::vector<logic::Formula> assumptions{a, b, c, d};
  std::vector<logic::Formula> core = s.minimal_core(assumptions);
  ASSERT_EQ(core.size(), 2u) << "only {a, b} is necessary";
  bool has_a = false, has_b = false;
  for (logic::Formula f : core) {
    has_a = has_a || f == a;
    has_b = has_b || f == b;
  }
  EXPECT_TRUE(has_a && has_b);
  // Minimality: every strict subset is satisfiable.
  for (size_t drop = 0; drop < core.size(); ++drop) {
    std::vector<logic::Formula> sub;
    for (size_t j = 0; j < core.size(); ++j) {
      if (j != drop) sub.push_back(core[j]);
    }
    EXPECT_EQ(s.check_assuming(sub), CheckResult::kSat);
  }
}

TEST_P(SmtBackendTest, MinimalCoreOfSatIsEmpty) {
  Solver s(GetParam());
  logic::Formula a = s.bool_var("a");
  std::vector<logic::Formula> assumptions{a};
  EXPECT_TRUE(s.minimal_core(assumptions).empty());
}

// Push/pop stress: random interleavings of scoped assertions and checks must
// produce identical verdict sequences on both backends.
class ScopeStressTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ScopeStressTest, BackendsAgreeUnderRandomScoping) {
  auto run = [](Backend backend, uint32_t seed) {
    std::mt19937 rng(seed);
    Solver s(backend);
    auto& fa = s.formulas();
    std::vector<logic::Formula> vars;
    for (int i = 0; i < 6; ++i) {
      vars.push_back(s.bool_var("v" + std::to_string(i)));
    }
    std::uniform_int_distribution<int> op(0, 9);
    std::uniform_int_distribution<size_t> pick(0, vars.size() - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    int depth = 0;
    std::vector<CheckResult> verdicts;
    for (int step = 0; step < 60; ++step) {
      int o = op(rng);
      if (o < 3) {
        s.push();
        ++depth;
      } else if (o < 5 && depth > 0) {
        s.pop();
        --depth;
      } else if (o < 8) {
        // Random binary clause (possibly negated literals).
        logic::Formula a = vars[pick(rng)];
        logic::Formula b = vars[pick(rng)];
        if (coin(rng)) a = fa.mk_not(a);
        if (coin(rng)) b = fa.mk_not(b);
        s.add(fa.mk_or(a, b));
      } else {
        verdicts.push_back(s.check());
      }
    }
    while (depth-- > 0) s.pop();
    verdicts.push_back(s.check());
    return verdicts;
  };
  uint32_t seed = GetParam();
  EXPECT_EQ(run(Backend::kBuiltin, seed), run(Backend::kZ3, seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopeStressTest, ::testing::Range(1u, 41u));

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
