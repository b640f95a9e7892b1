// Portfolio backend tests — the racing backend must be observationally
// identical to either backend alone: same verdicts, same pinned witnesses,
// same unsat-core contract, plus exactly one winner counter per definitive
// check. Z3 is compiled in unconditionally (CMake requires it), so there is
// no runtime skip; if the build ever gains a z3-less configuration these
// tests gate on all_backends() containing kPortfolio.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "obs/obs.hpp"
#include "smt/query_plan.hpp"
#include "smt/solver.hpp"

namespace llhsc::smt {
namespace {

int64_t counter_total(const std::vector<obs::Event>& events,
                      std::string_view name) {
  int64_t total = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::Event::Kind::kCounter && e.name == name) {
      total += e.delta;
    }
  }
  return total;
}

// Three-way differential: builtin-only, z3-only and the portfolio must
// agree on every verdict of the same random mixed bool/bv instance.
class PortfolioDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PortfolioDifferentialTest, AllThreeBackendsAgree) {
  auto build_and_check = [](Backend backend, uint64_t seed) {
    std::mt19937_64 local(seed);
    Solver s(backend);
    auto& fa = s.formulas();
    auto& bv = s.bitvectors();
    auto x = s.bv_var("x", 12);
    auto y = s.bv_var("y", 12);
    std::uniform_int_distribution<uint64_t> val(0, (1 << 12) - 1);
    std::uniform_int_distribution<int> kind(0, 3);
    std::vector<CheckResult> verdicts;
    for (int batch = 0; batch < 3; ++batch) {
      for (int i = 0; i < 4; ++i) {
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
      verdicts.push_back(s.check());
    }
    return verdicts;
  };
  const uint64_t seed = GetParam() * 0x9e3779b97f4a7c15ull;
  auto builtin = build_and_check(Backend::kBuiltin, seed);
  auto z3 = build_and_check(Backend::kZ3, seed);
  auto portfolio = build_and_check(Backend::kPortfolio, seed);
  EXPECT_EQ(builtin, z3);
  EXPECT_EQ(builtin, portfolio);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioDifferentialTest,
                         ::testing::Range(1u, 21u));

TEST(PortfolioBackendTest, EveryDefinitiveCheckRecordsExactlyOneWinner) {
  obs::TraceSink sink;
  {
    obs::ScopedSink guard(&sink);
    Solver s(Backend::kPortfolio);
    auto& fa = s.formulas();
    logic::Formula a = s.bool_var("a");
    logic::Formula b = s.bool_var("b");
    s.add(fa.mk_or(a, b));
    EXPECT_EQ(s.check(), CheckResult::kSat);
    s.push();
    s.add(fa.mk_not(a));
    s.add(fa.mk_not(b));
    EXPECT_EQ(s.check(), CheckResult::kUnsat);
    s.pop();
    EXPECT_EQ(s.check(), CheckResult::kSat);
  }
  const std::vector<obs::Event> events = sink.snapshot();
  const int64_t builtin_wins = counter_total(events, "portfolio_wins_builtin");
  const int64_t z3_wins = counter_total(events, "portfolio_wins_z3");
  EXPECT_EQ(builtin_wins + z3_wins, 3)
      << "builtin_wins=" << builtin_wins << " z3_wins=" << z3_wins;
  EXPECT_GE(builtin_wins, 0);
  EXPECT_GE(z3_wins, 0);
}

TEST(PortfolioBackendTest, PinnedWitnessIsBackendIndependent) {
  // A query whose witness term has exactly one value in every model — the
  // shape the semantic checker emits — must read back identically no matter
  // which backend wins the race.
  auto witness_of = [](Backend backend) {
    Solver s(backend);
    auto& bv = s.bitvectors();
    auto x = s.bv_var("x", 64);
    s.add(bv.uge(x, bv.bv_const(0x1800, 64)));
    s.add(bv.ult(x, bv.bv_const(0x2000, 64)));
    s.add(bv.eq(x, bv.bv_const(0x1800, 64)));  // the pin
    EXPECT_EQ(s.check(), CheckResult::kSat);
    return s.model_bv(x);
  };
  const uint64_t builtin = witness_of(Backend::kBuiltin);
  const uint64_t z3 = witness_of(Backend::kZ3);
  const uint64_t portfolio = witness_of(Backend::kPortfolio);
  EXPECT_EQ(builtin, 0x1800u);
  EXPECT_EQ(z3, builtin);
  EXPECT_EQ(portfolio, builtin);
}

TEST(PortfolioBackendTest, UnsatCoreComesFromTheWinner) {
  Solver s(Backend::kPortfolio);
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  logic::Formula c = s.bool_var("c");
  s.add(fa.mk_not(fa.mk_and(a, b)));
  std::vector<logic::Formula> assume{a, b, c};
  ASSERT_EQ(s.check_assuming(assume), CheckResult::kUnsat);
  std::vector<logic::Formula> core = s.unsat_core();
  ASSERT_FALSE(core.empty());
  bool has_ab = false;
  for (logic::Formula f : core) {
    EXPECT_TRUE(f == a || f == b || f == c)
        << "core element is not an assumption";
    has_ab = has_ab || f == a || f == b;
  }
  EXPECT_TRUE(has_ab);
}

TEST(PortfolioBackendTest, GuardRetirementStreamMatchesBuiltin) {
  // The query planner's exact call sequence — push, add the batch, check,
  // pop, next batch — replayed on builtin and portfolio side by side.
  auto run = [](Backend backend) {
    Solver s(backend);
    QueryPlanner planner(s, "");
    auto& bv = s.bitvectors();
    std::vector<CheckResult> verdicts;
    std::vector<uint64_t> witnesses;
    const struct { uint64_t a0, a1, b0, b1; } cases[] = {
        {0x1000, 0x1100, 0x1080, 0x1180},  // overlap
        {0x1000, 0x1100, 0x2000, 0x2100},  // disjoint
        {0x0, 0x10, 0x8, 0x18},            // overlap at zero
        {0x5000, 0x5001, 0x5001, 0x5002},  // adjacent
    };
    for (const auto& c : cases) {
      auto x = bv.bv_var("x", 64);
      std::vector<logic::Formula> fs{
          bv.uge(x, bv.bv_const(c.a0, 64)), bv.ult(x, bv.bv_const(c.a1, 64)),
          bv.uge(x, bv.bv_const(c.b0, 64)), bv.ult(x, bv.bv_const(c.b1, 64))};
      // Pin the witness to the intersection's low end so sat answers are
      // byte-comparable across backends.
      fs.push_back(bv.eq(x, bv.bv_const(std::max(c.a0, c.b0), 64)));
      QueryPlanner::Outcome o = planner.check(fs, x);
      verdicts.push_back(o.result);
      witnesses.push_back(o.witness);
    }
    return std::make_pair(verdicts, witnesses);
  };
  const auto builtin = run(Backend::kBuiltin);
  const auto portfolio = run(Backend::kPortfolio);
  EXPECT_EQ(builtin.first, portfolio.first);
  EXPECT_EQ(builtin.second, portfolio.second);
  ASSERT_EQ(builtin.first.size(), 4u);
  EXPECT_EQ(builtin.first[0], CheckResult::kSat);
  EXPECT_EQ(builtin.first[1], CheckResult::kUnsat);
  EXPECT_EQ(builtin.first[2], CheckResult::kSat);
  EXPECT_EQ(builtin.first[3], CheckResult::kUnsat);
}

TEST(PortfolioBackendTest, ExpiredDeadlineNeverHangsOrPoisons) {
  Solver s(Backend::kPortfolio);
  auto& bv = s.bitvectors();
  auto x = s.bv_var("x", 64);
  auto y = s.bv_var("y", 64);
  // 64-bit factoring: far beyond a 0ms budget. The instance is satisfiable
  // (the constant is odd, so any odd x determines a y mod 2^64), which pins
  // what a definitive answer may be. Deadlines are best-effort — z3's
  // timeout parameter is advisory and its timer can starve under load, so a
  // backend may still land a verdict; the contract is that the race returns
  // promptly-or-correctly: unknown from the expired budget, or sat if a
  // solver beat its own cancellation. Never unsat, never a hang.
  s.add(bv.eq(bv.bv_mul(x, y), bv.bv_const(0xffffffffffffffc5ull, 64)));
  s.add(bv.ugt(x, bv.bv_const(1, 64)));
  s.add(bv.ugt(y, bv.bv_const(1, 64)));
  s.set_deadline(support::Deadline::after_ms(0));
  EXPECT_NE(s.check(), CheckResult::kUnsat);
  // A fresh portfolio solver is unaffected by another race timing out.
  Solver trivial(Backend::kPortfolio);
  trivial.add(trivial.formulas().make_true());
  EXPECT_EQ(trivial.check(), CheckResult::kSat);
}

TEST(PortfolioBackendTest, RepeatedRacesOnOneInstanceStayConsistent) {
  // Stress the claim/cancel protocol: many quick races back to back on the
  // same solver, alternating sat and unsat, must never wedge or misreport.
  Solver s(Backend::kPortfolio);
  auto& fa = s.formulas();
  logic::Formula a = s.bool_var("a");
  logic::Formula b = s.bool_var("b");
  s.add(fa.mk_or(a, b));
  std::vector<logic::Formula> sat_assume{a};
  std::vector<logic::Formula> unsat_assume{fa.mk_not(a), fa.mk_not(b)};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(s.check_assuming(sat_assume), CheckResult::kSat) << "round " << i;
    EXPECT_EQ(s.check_assuming(unsat_assume), CheckResult::kUnsat)
        << "round " << i;
  }
}

}  // namespace
}  // namespace llhsc::smt
