// Clock-assignment uniqueness (checkers/semantic.cpp, the claim pairs of
// checkers::discharge): two consumers pinning the same (provider,
// specifier) clock is a fault, and the planner's bucket prefilter — the
// sweep-line idea generalised to clock-provider buckets — must keep
// verdicts byte-identical to the exhaustive pairwise path.
#include <memory>
#include <string>

#include "checkers/semantic.hpp"
#include "dts/parser.hpp"
#include "gtest/gtest.h"

namespace llhsc::checkers {
namespace {

std::unique_ptr<dts::Tree> parse(const std::string& src) {
  support::DiagnosticEngine diags;
  auto tree = dts::parse_dts(src, "clock.dts", diags);
  EXPECT_NE(tree, nullptr);
  EXPECT_FALSE(diags.has_errors());
  return tree;
}

Findings check(const dts::Tree& tree, bool plan) {
  SemanticOptions opts;
  opts.plan = plan;
  SemanticChecker checker(smt::Backend::kBuiltin, opts);
  return checker.check(tree);
}

size_t clock_findings(const Findings& fs) {
  size_t n = 0;
  for (const Finding& f : fs) {
    if (f.kind == FindingKind::kClockCollision) ++n;
  }
  return n;
}

constexpr const char* kColliding =
    "/dts-v1/;\n"
    "/ {\n"
    "  #address-cells = <1>; #size-cells = <1>;\n"
    "  clk: clock-controller { phandle = <1>; #clock-cells = <1>; };\n"
    "  a@1000 { reg = <0x1000 0x100>; assigned-clocks = <1 4>; };\n"
    "  b@2000 { reg = <0x2000 0x100>; assigned-clocks = <1 4>; };\n"
    "};\n";

TEST(ClockCheck, SameProviderSameSpecifierCollides) {
  auto tree = parse(kColliding);
  Findings fs = check(*tree, /*plan=*/true);
  ASSERT_EQ(clock_findings(fs), 1u);
  for (const Finding& f : fs) {
    if (f.kind != FindingKind::kClockCollision) continue;
    EXPECT_EQ(f.property, "assigned-clocks");
    EXPECT_NE(f.message.find("provider phandle 1"), std::string::npos);
  }
}

TEST(ClockCheck, DistinctSpecifiersDoNotCollide) {
  auto tree = parse(
      "/dts-v1/;\n"
      "/ {\n"
      "  #address-cells = <1>; #size-cells = <1>;\n"
      "  clk: clock-controller { phandle = <1>; #clock-cells = <1>; };\n"
      "  a@1000 { reg = <0x1000 0x100>; assigned-clocks = <1 4>; };\n"
      "  b@2000 { reg = <0x2000 0x100>; assigned-clocks = <1 5>; };\n"
      "};\n");
  EXPECT_EQ(clock_findings(check(*tree, true)), 0u);
}

TEST(ClockCheck, PerProviderStrideIsRespected) {
  // Provider 1 takes one specifier cell, provider 2 takes none: the second
  // entry of a's list starts right after <1 7>. Both consumers pin clock
  // provider-2 (the zero-cell provider), which must collide.
  auto tree = parse(
      "/dts-v1/;\n"
      "/ {\n"
      "  #address-cells = <1>; #size-cells = <1>;\n"
      "  clka { phandle = <1>; #clock-cells = <1>; };\n"
      "  clkb { phandle = <2>; #clock-cells = <0>; };\n"
      "  a@1000 { reg = <0x1000 0x100>; assigned-clocks = <1 7 2>; };\n"
      "  b@2000 { reg = <0x2000 0x100>; assigned-clocks = <2>; };\n"
      "};\n");
  EXPECT_EQ(clock_findings(check(*tree, true)), 1u);
}

TEST(ClockCheck, UnknownProviderEntriesAreSkipped) {
  // Phandle 9 resolves to nothing: the stride is unknowable, so the entry
  // is skipped (crossref owns the dangling-phandle report) — no crash, no
  // false collision.
  auto tree = parse(
      "/dts-v1/;\n"
      "/ {\n"
      "  #address-cells = <1>; #size-cells = <1>;\n"
      "  a@1000 { reg = <0x1000 0x100>; assigned-clocks = <9 4>; };\n"
      "  b@2000 { reg = <0x2000 0x100>; assigned-clocks = <9 4>; };\n"
      "};\n");
  EXPECT_EQ(clock_findings(check(*tree, true)), 0u);
}

TEST(ClockCheck, PlannedEqualsExhaustive) {
  auto tree = parse(kColliding);
  Findings planned = check(*tree, /*plan=*/true);
  Findings exhaustive = check(*tree, /*plan=*/false);
  ASSERT_EQ(planned.size(), exhaustive.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    EXPECT_EQ(planned[i].kind, exhaustive[i].kind);
    EXPECT_EQ(planned[i].subject, exhaustive[i].subject);
    EXPECT_EQ(planned[i].other_subject, exhaustive[i].other_subject);
    EXPECT_EQ(planned[i].message, exhaustive[i].message);
  }
}

}  // namespace
}  // namespace llhsc::checkers
