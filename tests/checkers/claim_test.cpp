// Property tests for claim uniqueness (checkers/semantic.cpp: claim_pairs
// and the claim pairs of checkers::discharge) on seeded random claim
// sets: multi-cell interrupt tuples, interrupt parents set per node or
// inherited from a bus, clock providers of zero, one and two cells, and
// truncated tuples. Modelled on RandomRegionsTest: the planned path must be
// byte-identical to the exhaustive path, the planner must account for
// every comparable pair, and the bucketed pairing must equal a naive
// O(n^2) oracle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checkers/crossref/context.hpp"
#include "checkers/report.hpp"
#include "checkers/semantic.hpp"
#include "dts/parser.hpp"
#include "random_boards.hpp"

namespace llhsc::checkers {
namespace {

struct ClaimCase {
  uint32_t seed;
  smt::Backend backend;
};

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
    const crossref::AnalysisContext ctx(*tree);
    irq_candidates +=
        claim_pairs(collect_interrupt_claims(ctx)).candidates.size();
    clock_candidates +=
        claim_pairs(collect_clock_claims(ctx)).candidates.size();
  }
  EXPECT_GT(irq_candidates, 0u);
  EXPECT_GT(clock_candidates, 0u);
}

class RandomClaimsTest : public ::testing::TestWithParam<ClaimCase> {};

TEST_P(RandomClaimsTest, ClaimPairsMatchesNaiveOracle) {
  auto tree = parse(random_claims_dts(GetParam().seed));
  ASSERT_NE(tree, nullptr);
  const crossref::AnalysisContext ctx(*tree);
  for (const std::vector<Claim>& claims :
       {collect_interrupt_claims(ctx), collect_clock_claims(ctx)}) {
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
  // path accounts for each of those exactly once: pruned, issued, or
  // answered by the planner's memo because a structurally identical pair
  // (same tuple values) was already decided.
  const crossref::AnalysisContext ctx(*tree);
  const uint64_t comparable =
      naive_claim_pairs(collect_interrupt_claims(ctx)).comparable +
      naive_claim_pairs(collect_clock_claims(ctx)).comparable;
  const smt::QueryPlanStats& stats = planned.plan_stats();
  EXPECT_EQ(stats.queries_issued + stats.queries_pruned + stats.memo_hits,
            comparable);
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
