// Property tests for claim uniqueness (checkers/semantic.cpp: claim_pairs,
// ClaimQueries, SemanticChecker::check_claims) on seeded random claim
// sets: multi-cell interrupt tuples, interrupt parents set per node or
// inherited from a bus, clock providers of zero, one and two cells, and
// truncated tuples. Modelled on RandomRegionsTest: the planned path must be
// byte-identical to the exhaustive path, the planner must account for
// every comparable pair, and the bucketed pairing must equal a naive
// O(n^2) oracle.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checkers/report.hpp"
#include "checkers/semantic.hpp"
#include "dts/parser.hpp"

namespace llhsc::checkers {
namespace {

struct ClaimCase {
  uint32_t seed;
  smt::Backend backend;
};

/// A random board with no `reg` anywhere, so the semantic checker's only
/// queries are claim queries. Cell values come from {0, 1, 2} so that
/// collisions are frequent.
std::string random_claims_dts(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](uint32_t n) {
    return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
  };
  std::ostringstream os;
  os << "/dts-v1/;\n/ {\n";
  // Interrupt controllers: phandles 1..3, 1..3 cells each.
  for (uint32_t p = 1; p <= 3; ++p) {
    os << "  intc" << p << " { phandle = <" << p
       << ">; interrupt-controller; #interrupt-cells = <" << 1 + pick(3)
       << ">; };\n";
  }
  // Clock providers: phandles 11..13; 11 is a single-clock (zero-cell)
  // provider, the others take one or two specifier cells.
  const uint32_t clock_cells[] = {0, 1 + pick(2), 1 + pick(2)};
  for (uint32_t p = 0; p < 3; ++p) {
    os << "  clk" << p << " { phandle = <" << 11 + p << ">; #clock-cells = <"
       << clock_cells[p] << ">; };\n";
  }
  for (uint32_t b = 0; b < 3; ++b) {
    os << "  bus" << b << " {\n";
    if (pick(2) == 0) {
      os << "    interrupt-parent = <" << 1 + pick(3) << ">;\n";
    }
    const uint32_t devices = 2 + pick(3);
    for (uint32_t d = 0; d < devices; ++d) {
      os << "    dev" << d << " {\n";
      if (pick(3) == 0) {
        os << "      interrupt-parent = <" << 1 + pick(3) << ">;\n";
      }
      if (pick(4) != 0) {
        // 1..4 cells: one or more whole tuples, sometimes a truncated tail.
        os << "      interrupts = <";
        const uint32_t cells = 1 + pick(4);
        for (uint32_t c = 0; c < cells; ++c) os << (c ? " " : "") << pick(3);
        os << ">;\n";
      }
      if (pick(3) != 0) {
        os << "      assigned-clocks = <";
        const uint32_t entries = 1 + pick(2);
        for (uint32_t e = 0; e < entries; ++e) {
          const uint32_t p = pick(3);
          os << (e ? " " : "") << 11 + p;
          for (uint32_t c = 0; c < clock_cells[p]; ++c) os << " " << pick(3);
        }
        os << ">;\n";
      }
      os << "    };\n";
    }
    os << "  };\n";
  }
  os << "};\n";
  return os.str();
}

std::unique_ptr<dts::Tree> parse(const std::string& src) {
  support::DiagnosticEngine diags;
  auto tree = dts::parse_dts(src, "claims.dts", diags);
  EXPECT_NE(tree, nullptr) << src;
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return tree;
}

/// The naive oracle: every pair (i < j) in order; comparable = same owner
/// and arity, candidate = comparable with equal tuples.
ClaimPairs naive_claim_pairs(const std::vector<Claim>& claims) {
  ClaimPairs out;
  for (size_t i = 0; i < claims.size(); ++i) {
    for (size_t j = i + 1; j < claims.size(); ++j) {
      const Claim& a = claims[i];
      const Claim& b = claims[j];
      if (a.owner_phandle != b.owner_phandle ||
          a.tuple.size() != b.tuple.size()) {
        continue;
      }
      ++out.comparable;
      if (a.tuple == b.tuple) out.candidates.emplace_back(i, j);
    }
  }
  return out;
}

// Guards the generator: the seeds below must exercise real collisions of
// both kinds, or the equivalence tests prove nothing.
TEST(RandomClaims, SeedsProduceCollisionsOfBothKinds) {
  size_t irq_candidates = 0, clock_candidates = 0;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    auto tree = parse(random_claims_dts(seed));
    ASSERT_NE(tree, nullptr);
    irq_candidates +=
        claim_pairs(collect_interrupt_claims(*tree)).candidates.size();
    clock_candidates +=
        claim_pairs(collect_clock_claims(*tree)).candidates.size();
  }
  EXPECT_GT(irq_candidates, 0u);
  EXPECT_GT(clock_candidates, 0u);
}

class RandomClaimsTest : public ::testing::TestWithParam<ClaimCase> {};

TEST_P(RandomClaimsTest, ClaimPairsMatchesNaiveOracle) {
  auto tree = parse(random_claims_dts(GetParam().seed));
  ASSERT_NE(tree, nullptr);
  for (const std::vector<Claim>& claims :
       {collect_interrupt_claims(*tree), collect_clock_claims(*tree)}) {
    const ClaimPairs got = claim_pairs(claims);
    const ClaimPairs want = naive_claim_pairs(claims);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.comparable, want.comparable);
  }
}

TEST_P(RandomClaimsTest, PlannedPathMatchesExhaustiveAndCountsEveryPair) {
  const std::string src = random_claims_dts(GetParam().seed);
  auto tree = parse(src);
  ASSERT_NE(tree, nullptr);

  SemanticOptions planned_opts;
  planned_opts.plan = true;
  SemanticOptions exhaustive_opts;
  exhaustive_opts.plan = false;
  SemanticChecker planned(GetParam().backend, planned_opts);
  SemanticChecker exhaustive(GetParam().backend, exhaustive_opts);
  const Findings pf = planned.check(*tree);
  const Findings ef = exhaustive.check(*tree);

  EXPECT_EQ(render(pf), render(ef)) << src;
  EXPECT_EQ(report_json(pf), report_json(ef)) << src;

  // The exhaustive path issues one query per comparable pair; the planned
  // path issues or prunes each of those exactly once.
  const uint64_t comparable =
      naive_claim_pairs(collect_interrupt_claims(*tree)).comparable +
      naive_claim_pairs(collect_clock_claims(*tree)).comparable;
  const smt::QueryPlanStats& stats = planned.plan_stats();
  EXPECT_EQ(stats.queries_issued + stats.queries_pruned, comparable);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(planned.solver_checks(), stats.queries_issued);
  EXPECT_EQ(exhaustive.solver_checks(), comparable);
}

std::vector<ClaimCase> claim_cases() {
  std::vector<ClaimCase> cases;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({seed, smt::Backend::kBuiltin});
  }
  for (uint32_t seed = 101; seed <= 104; ++seed) {
    cases.push_back({seed, smt::Backend::kZ3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, RandomClaimsTest,
                         ::testing::ValuesIn(claim_cases()),
                         [](const ::testing::TestParamInfo<ClaimCase>& info) {
                           return std::string(
                                      smt::to_string(info.param.backend)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace llhsc::checkers
