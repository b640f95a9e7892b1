// Tests for the sweep-line baseline (verdict-equivalence with the SMT path)
// and the JSON report rendering.
#include <gtest/gtest.h>

#include <random>

#include "checkers/interval_baseline.hpp"
#include "checkers/report.hpp"

namespace llhsc::checkers {
namespace {

MemRegion region(std::string path, uint64_t base, uint64_t size,
                 RegionClass cls = RegionClass::kDevice) {
  MemRegion r;
  r.path = std::move(path);
  r.base = base;
  r.size = size;
  r.region_class = cls;
  return r;
}

TEST(IntervalBaseline, FindsSimpleOverlap) {
  std::vector<MemRegion> regions{region("/a", 0x1000, 0x200),
                                 region("/b", 0x1100, 0x100)};
  auto pairs = find_overlaps_sweepline(regions);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (OverlapPair{0, 1}));
}

TEST(IntervalBaseline, AdjacentRegionsDoNotOverlap) {
  std::vector<MemRegion> regions{region("/a", 0x1000, 0x100),
                                 region("/b", 0x1100, 0x100)};
  EXPECT_TRUE(find_overlaps_sweepline(regions).empty());
}

TEST(IntervalBaseline, RespectsClassRules) {
  std::vector<MemRegion> regions{
      region("/mem", 0x1000, 0x1000, RegionClass::kMemory),
      region("/ipc", 0x1400, 0x100, RegionClass::kIpc)};
  EXPECT_TRUE(find_overlaps_sweepline(regions).empty())
      << "ipc-over-memory is sanctioned";
  regions[1].region_class = RegionClass::kDevice;
  EXPECT_EQ(find_overlaps_sweepline(regions).size(), 1u);
}

TEST(IntervalBaseline, ZeroSizeRegionsIgnored) {
  std::vector<MemRegion> regions{region("/a", 0x1000, 0),
                                 region("/b", 0x1000, 0x100)};
  EXPECT_TRUE(find_overlaps_sweepline(regions).empty());
}

TEST(IntervalBaseline, NestedAndChainedOverlaps) {
  std::vector<MemRegion> regions{region("/big", 0x1000, 0x1000),
                                 region("/in1", 0x1100, 0x100),
                                 region("/in2", 0x1fff, 0x100)};
  auto pairs = find_overlaps_sweepline(regions);
  // big-in1, big-in2; in1 and in2 are disjoint.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (OverlapPair{0, 1}));
  EXPECT_EQ(pairs[1], (OverlapPair{0, 2}));

  // A skipped pair is dropped; the others keep their order. The predicate
  // sees each pair as (first, second) with first < second.
  std::vector<OverlapPair> asked;
  pairs = find_overlaps_sweepline(regions, [&](size_t a, size_t b) {
    asked.push_back({a, b});
    return a == 0 && b == 1;
  });
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (OverlapPair{0, 2}));
  EXPECT_EQ(asked.size(), 2u);
  for (const OverlapPair& p : asked) EXPECT_LT(p.first, p.second);
}

class BaselineAgreementTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BaselineAgreementTest, AgreesWithSemanticChecker) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<uint64_t> base_dist(0, 1 << 16);
  std::uniform_int_distribution<uint64_t> size_dist(1, 1 << 10);
  std::uniform_int_distribution<int> cls_dist(0, 2);
  std::vector<MemRegion> regions;
  for (int i = 0; i < 12; ++i) {
    regions.push_back(region("/r" + std::to_string(i), base_dist(rng),
                             size_dist(rng),
                             static_cast<RegionClass>(cls_dist(rng))));
  }
  auto pairs = find_overlaps_sweepline(regions);

  SemanticChecker checker;
  Findings f = checker.check_regions(regions);
  size_t smt_overlaps = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap) ++smt_overlaps;
  }
  EXPECT_EQ(pairs.size(), smt_overlaps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineAgreementTest,
                         ::testing::Range(1u, 13u));

TEST(Report, JsonShapeAndEscaping) {
  Finding f;
  f.kind = FindingKind::kAddressOverlap;
  f.subject = "/memory@40000000[0]";
  f.other_subject = "/uart@60000000[0]";
  f.delta = "d3";
  f.base_a = 0x60000000;
  f.size_a = 0x20000000;
  f.base_b = 0x60000000;
  f.size_b = 0x1000;
  f.witness = 0x60000000;
  f.message = "overlap with \"quotes\"\nand newline";
  Findings fs{f};

  std::string json = to_json(fs);
  EXPECT_NE(json.find("\"kind\": \"address-overlap\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"delta\": \"d3\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\": 1610612736"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "raw newlines must be escaped";
}

TEST(Report, SummaryCounts) {
  Finding err;
  err.kind = FindingKind::kMissingRequired;
  err.subject = "/n";
  Finding warn;
  warn.kind = FindingKind::kZeroSizeRegion;
  warn.severity = FindingSeverity::kWarning;
  warn.subject = "/n";
  std::string json = report_json({err, warn});
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
}

TEST(Report, EmptyFindings) {
  EXPECT_EQ(to_json({}), "[]");
  EXPECT_NE(report_json({}).find("\"errors\": 0"), std::string::npos);
}

}  // namespace
}  // namespace llhsc::checkers
