// Lifted family-based checking (src/lift): engine behaviour on synthetic
// families and the paper's running example, plus the differential harness
// proving lifted verdicts equal per-product enumeration — on every backend.
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/running_example.hpp"
#include "dts/parser.hpp"
#include "feature/text_format.hpp"
#include "gtest/gtest.h"
#include "lift/differential.hpp"
#include "lift/lift.hpp"
#include "lift/synthetic.hpp"

namespace llhsc {
namespace {

using checkers::FindingKind;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

feature::FeatureModel custom_sbc_model() {
  support::DiagnosticEngine diags;
  auto model = feature::parse_model(
      read_file(std::string(LLHSC_EXAMPLES_DATA_DIR) + "/custom-sbc.fm"),
      "custom-sbc.fm", diags);
  EXPECT_TRUE(model.has_value());
  return std::move(*model);
}

/// Builds a product line from inline DTS + delta sources.
std::unique_ptr<delta::ProductLine> make_line(const std::string& core_dts,
                                              const std::string& deltas_src) {
  support::DiagnosticEngine diags;
  auto core = dts::parse_dts(core_dts, "core.dts", diags);
  EXPECT_NE(core, nullptr);
  auto deltas = delta::parse_deltas(deltas_src, "line.deltas", diags);
  EXPECT_FALSE(diags.has_errors()) << diags.diagnostics().size();
  return std::make_unique<delta::ProductLine>(std::move(core),
                                              std::move(deltas));
}

feature::FeatureModel optional_features_model(
    const std::vector<std::string>& names) {
  feature::FeatureModel m;
  feature::FeatureId root = m.add_root("root");
  for (const std::string& n : names) m.add_feature(root, n);
  return m;
}

lift::DifferentialReport expect_differential_equal(
    const delta::ProductLine& line, const feature::FeatureModel& model,
    const lift::LiftedResult& lifted, const lift::LiftOptions& opts) {
  lift::DifferentialReport report =
      lift::compare_with_enumeration(line, model, lifted, opts);
  EXPECT_TRUE(report.equal);
  for (const std::string& m : report.mismatches) ADD_FAILURE() << m;
  EXPECT_FALSE(report.capped);
  return report;
}

TEST(LiftedSynthetic, CleanFamilyHasNoFindings) {
  lift::SyntheticSpl spl = lift::make_synthetic_spl(4, /*with_overlap=*/false);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.components, 4u);
  // Each independent optional delta has exactly two activation patterns.
  EXPECT_EQ(r.patterns, 8u);
  EXPECT_EQ(r.slices, 8u);
  expect_differential_equal(*spl.line, spl.model, r, opts);
}

TEST(LiftedSynthetic, OverlapReportedWithSymbolicCondition) {
  lift::SyntheticSpl spl = lift::make_synthetic_spl(4, /*with_overlap=*/true);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.findings.size(), 1u);
  const lift::LiftedFinding& f = r.findings[0];
  EXPECT_EQ(f.finding.kind, FindingKind::kAddressOverlap);
  // The overlap needs exactly dev0 and dev1 active.
  ASSERT_EQ(f.condition.size(), 2u);
  for (const lift::DeltaLiteral& l : f.condition) EXPECT_TRUE(l.positive);
  EXPECT_EQ(f.config_summary, "f0 && f1");
  EXPECT_TRUE(f.sample_config.count("f0"));
  EXPECT_TRUE(f.sample_config.count("f1"));
  expect_differential_equal(*spl.line, spl.model, r, opts);
}

TEST(LiftedSynthetic, DifferentialHoldsOnEveryBackend) {
  for (smt::Backend backend : smt::all_backends()) {
    lift::SyntheticSpl spl =
        lift::make_synthetic_spl(3, /*with_overlap=*/true);
    support::DiagnosticEngine diags;
    lift::LiftOptions opts;
    opts.backend = backend;
    lift::LiftedResult r =
        lift::check_family(*spl.line, spl.model, opts, diags);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.findings.size(), 1u);
    expect_differential_equal(*spl.line, spl.model, r, opts);
  }
}

TEST(LiftedSynthetic, FlattenAnnotatesConfigs) {
  lift::SyntheticSpl spl = lift::make_synthetic_spl(2, /*with_overlap=*/true);
  support::DiagnosticEngine diags;
  lift::LiftedResult r =
      lift::check_family(*spl.line, spl.model, {}, diags);
  checkers::Findings flat = lift::flatten(r);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_NE(flat[0].message.find("[configs: f0 && f1]"), std::string::npos);
}

TEST(LiftedSynthetic, PatternCapRefusesIncompleteResult) {
  lift::SyntheticSpl spl = lift::make_synthetic_spl(3, /*with_overlap=*/false);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  opts.max_patterns = 1;
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].finding.kind, FindingKind::kEnumerationCapped);
}

TEST(LiftedSynthetic, DifferentialCoversWhole4096ProductFamily) {
  // Every product of the 2^12 family, not a sample: the lifted verdicts
  // equal per-product enumeration over all 4096.
  lift::SyntheticSpl spl = lift::make_synthetic_spl(12, /*with_overlap=*/true);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  opts.max_configs = 4;
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_TRUE(r.ok);
  // The harness enumerates at most 4096 products by default.
  EXPECT_EQ(expect_differential_equal(*spl.line, spl.model, r, opts).products,
            4096u);
}

TEST(LiftedSynthetic, MillionProductFamilyNeedsLinearPatterns) {
  // 2^20 products: the activation patterns grow with the deltas (two per
  // independent delta at most), so the family completes without
  // enumeration.
  lift::SyntheticSpl spl = lift::make_synthetic_spl(20, /*with_overlap=*/true);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  opts.max_configs = 4;
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.patterns, 0u);
  EXPECT_LE(r.patterns, 64u);
}

TEST(LiftedSynthetic, ExclusivityLiftFlagsAlwaysSelectedFeature) {
  lift::SyntheticSpl spl = lift::make_synthetic_spl(2, /*with_overlap=*/false);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  opts.exclusive_features = {"synth", "f0"};
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_TRUE(r.ok);
  // The root is selected everywhere; the optional f0 is not.
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].finding.kind, FindingKind::kExclusivityViolation);
  EXPECT_EQ(r.findings[0].finding.subject, "synth");
}

TEST(LiftedDeriveFailure, FailingConfigsBecomeFailClasses) {
  auto line = make_line(
      "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>; };\n",
      "delta good when f0 {\n"
      "  adds binding / { dev@1000 { reg = <0x1000 0x100>; }; }\n"
      "}\n"
      "delta broken when f1 {\n"
      "  modifies /missing { status = \"okay\"; }\n"
      "}\n");
  feature::FeatureModel model = optional_features_model({"f0", "f1"});
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*line, model, opts, diags);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.fail_classes.size(), 1u);
  ASSERT_EQ(r.fail_classes[0].size(), 1u);
  EXPECT_EQ(r.fail_classes[0][0].delta, "broken");
  EXPECT_TRUE(r.fail_classes[0][0].positive);
  bool has_derive_failure = false;
  for (const lift::LiftedFinding& f : r.findings) {
    if (f.finding.kind == FindingKind::kDeriveFailure) {
      has_derive_failure = true;
      EXPECT_EQ(f.config_summary, "f1");
    }
  }
  EXPECT_TRUE(has_derive_failure);
  expect_differential_equal(*line, model, r, opts);
}

TEST(LiftedInterrupts, CollisionOnlyWhenBothDevicesSelected) {
  auto line = make_line(
      "/dts-v1/;\n"
      "/ {\n"
      "  #address-cells = <1>; #size-cells = <1>;\n"
      "  interrupt-parent = <1>;\n"
      "  intc {\n"
      "    phandle = <1>;\n"
      "    #interrupt-cells = <1>;\n"
      "    interrupt-controller;\n"
      "  };\n"
      "};\n",
      "delta dev_a when f0 {\n"
      "  adds binding / { deva@1000 { reg = <0x1000 0x100>;\n"
      "                               interrupts = <5>; }; }\n"
      "}\n"
      "delta dev_b when f1 {\n"
      "  adds binding / { devb@2000 { reg = <0x2000 0x100>;\n"
      "                               interrupts = <5>; }; }\n"
      "}\n");
  feature::FeatureModel model = optional_features_model({"f0", "f1"});
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*line, model, opts, diags);
  EXPECT_TRUE(r.ok);
  // Both deltas write interrupt-affecting properties: one shared component.
  EXPECT_EQ(r.components, 1u);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].finding.kind, FindingKind::kInterruptCollision);
  EXPECT_EQ(r.findings[0].config_summary, "f0 && f1");
  expect_differential_equal(*line, model, r, opts);
}

TEST(LiftedClocks, AssignedClockCollisionIsConditional) {
  auto line = make_line(
      "/dts-v1/;\n"
      "/ {\n"
      "  #address-cells = <1>; #size-cells = <1>;\n"
      "  clock-controller {\n"
      "    phandle = <2>;\n"
      "    #clock-cells = <1>;\n"
      "  };\n"
      "};\n",
      "delta cons_a when f0 {\n"
      "  adds binding / { consa@1000 { reg = <0x1000 0x100>;\n"
      "                                assigned-clocks = <2 7>; }; }\n"
      "}\n"
      "delta cons_b when f1 {\n"
      "  adds binding / { consb@2000 { reg = <0x2000 0x100>;\n"
      "                                assigned-clocks = <2 7>; }; }\n"
      "}\n");
  feature::FeatureModel model = optional_features_model({"f0", "f1"});
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*line, model, opts, diags);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].finding.kind, FindingKind::kClockCollision);
  EXPECT_EQ(r.findings[0].config_summary, "f0 && f1");
  expect_differential_equal(*line, model, r, opts);
}

TEST(LiftedRefusal, AmbiguousBareTargetInUnionIsRejected) {
  auto line = make_line(
      "/dts-v1/;\n"
      "/ {\n"
      "  #address-cells = <1>; #size-cells = <1>;\n"
      "  busa { uart { }; };\n"
      "  busb { uart { }; };\n"
      "};\n",
      "delta tweak when f0 {\n"
      "  modifies uart { status = \"okay\"; }\n"
      "}\n");
  feature::FeatureModel model = optional_features_model({"f0"});
  support::DiagnosticEngine diags;
  lift::LiftedResult r = lift::check_family(*line, model, {}, diags);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(diags.has_errors());
}

TEST(LiftedRunningExample, DifferentialOnCustomSbc) {
  for (smt::Backend backend : smt::all_backends()) {
    support::DiagnosticEngine diags;
    auto line = core::running_example_product_line(diags);
    ASSERT_NE(line, nullptr);
    feature::FeatureModel model = custom_sbc_model();
    lift::LiftOptions opts;
    opts.backend = backend;
    lift::LiftedResult r = lift::check_family(*line, model, opts, diags);
    EXPECT_TRUE(r.ok);
    // The complete product line is clean: every product checks green.
    EXPECT_TRUE(r.findings.empty());
    expect_differential_equal(*line, model, r, opts);
  }
}

TEST(LiftedRunningExample, MissingD4TruncationFoundFamilyWide) {
  support::DiagnosticEngine diags;
  auto line = core::running_example_product_line_without_d4(diags);
  ASSERT_NE(line, nullptr);
  feature::FeatureModel model = custom_sbc_model();
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*line, model, opts, diags);
  EXPECT_TRUE(r.ok);
  bool overlap = false;
  for (const lift::LiftedFinding& f : r.findings) {
    if (f.finding.kind == FindingKind::kAddressOverlap) overlap = true;
  }
  EXPECT_TRUE(overlap);
  expect_differential_equal(*line, model, r, opts);
}

TEST(LiftedRunningExample, UartClashCoreDifferential) {
  support::DiagnosticEngine diags;
  auto line =
      core::running_example_product_line(diags, /*with_uart_clash=*/true);
  ASSERT_NE(line, nullptr);
  feature::FeatureModel model = custom_sbc_model();
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*line, model, opts, diags);
  EXPECT_TRUE(r.ok);
  expect_differential_equal(*line, model, r, opts);
}

TEST(LiftedScale, LargeFamilyCheckedWithoutEnumeration) {
  // 2^12 products; the engine's work is linear in deltas, not products.
  lift::SyntheticSpl spl = lift::make_synthetic_spl(12, /*with_overlap=*/true);
  support::DiagnosticEngine diags;
  lift::LiftOptions opts;
  lift::LiftedResult r = lift::check_family(*spl.line, spl.model, opts, diags);
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].config_summary, "f0 && f1");
  EXPECT_EQ(r.components, 12u);
  EXPECT_EQ(r.slices, 24u);
  // Differential on a sample of the family (capped) still matches.
  lift::DifferentialOptions dopts;
  dopts.max_products = 64;
  lift::DifferentialReport report =
      lift::compare_with_enumeration(*spl.line, spl.model, r, opts, dopts);
  EXPECT_TRUE(report.equal);
  EXPECT_TRUE(report.capped);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_EQ(report.notes[0].kind, FindingKind::kEnumerationCapped);
}

}  // namespace
}  // namespace llhsc
