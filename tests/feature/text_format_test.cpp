// The textual feature-model format: parsing, semantics, and the
// print -> parse round trip.
#include "feature/text_format.hpp"

#include <gtest/gtest.h>

#include "feature/analysis.hpp"

namespace llhsc::feature {
namespace {

constexpr const char* kFig1aText = R"(model CustomSBC {
    memory mandatory;
    cpus mandatory group xor {
        cpu@0;
        cpu@1;
    }
    uarts mandatory abstract group or {
        uart@20000000;
        uart@30000000;
    }
    vEthernet abstract group xor {
        veth0;
        veth1;
    }
    constraint veth0 requires cpu@0;
    constraint veth1 requires cpu@1;
}
)";

std::optional<FeatureModel> parse_ok(std::string_view text) {
  support::DiagnosticEngine de;
  auto m = parse_model(text, "m.fm", de);
  EXPECT_FALSE(de.has_errors()) << de.render();
  return m;
}

TEST(TextFormat, ParsesFig1a) {
  auto m = parse_ok(kFig1aText);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size(), 11u);
  EXPECT_EQ(m->feature(m->root()).name, "CustomSBC");
  EXPECT_TRUE(m->feature(*m->find("memory")).mandatory);
  EXPECT_EQ(m->feature(*m->find("cpus")).group, GroupKind::kXor);
  EXPECT_EQ(m->feature(*m->find("uarts")).group, GroupKind::kOr);
  EXPECT_TRUE(m->feature(*m->find("uarts")).abstract_feature);
  EXPECT_EQ(m->cross_constraints().size(), 2u);
}

TEST(TextFormat, ParsedFig1aMatchesBuiltinModel) {
  // The text form and the builtin C++ construction must describe the same
  // product line: identical product counts and identical valid selections.
  auto parsed = parse_ok(kFig1aText);
  ASSERT_TRUE(parsed.has_value());
  FeatureModel builtin = running_example_model();
  ASSERT_EQ(parsed->size(), builtin.size());
  smt::Solver s1, s2;
  EXPECT_EQ(count_products(*parsed, s1), count_products(builtin, s2));
  for (uint32_t mask = 0; mask < (1u << builtin.size()); ++mask) {
    Selection sel(builtin.size());
    for (uint32_t i = 0; i < builtin.size(); ++i) sel[i] = (mask >> i) & 1;
    EXPECT_EQ(parsed->is_consistent_selection(sel),
              builtin.is_consistent_selection(sel))
        << "mask=" << mask;
  }
}

TEST(TextFormat, PrintParseRoundTrip) {
  auto original = parse_ok(kFig1aText);
  ASSERT_TRUE(original.has_value());
  std::string printed = print_model(*original);
  auto reparsed = parse_ok(printed);
  ASSERT_TRUE(reparsed.has_value()) << printed;
  ASSERT_EQ(reparsed->size(), original->size());
  for (uint32_t i = 0; i < original->size(); ++i) {
    const Feature& a = original->feature(FeatureId{i});
    const Feature& b = reparsed->feature(FeatureId{i});
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.mandatory, b.mandatory);
    EXPECT_EQ(a.abstract_feature, b.abstract_feature);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.parent, b.parent);
  }
  EXPECT_EQ(reparsed->cross_constraints().size(),
            original->cross_constraints().size());
}

TEST(TextFormat, RootGroup) {
  auto m = parse_ok("model M group xor { a; b; }\n");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->feature(m->root()).group, GroupKind::kXor);
  smt::Solver solver;
  EXPECT_EQ(count_products(*m, solver), 2u);
}

TEST(TextFormat, NestedGroups) {
  auto m = parse_ok(R"(model M {
    top mandatory group or {
        left group xor { l1; l2; }
        right;
    }
}
)");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size(), 6u);
  // or over {left, right}; left is xor{l1,l2}. Products: left(l1), left(l2),
  // right, left(l1)+right, left(l2)+right = 5.
  smt::Solver solver;
  EXPECT_EQ(count_products(*m, solver), 5u);
}

TEST(TextFormat, ErrorsAreReported) {
  support::DiagnosticEngine de;
  EXPECT_FALSE(parse_model("nonsense", "m.fm", de).has_value());
  EXPECT_TRUE(de.contains_code("fm-parse"));

  support::DiagnosticEngine de2;
  EXPECT_FALSE(parse_model("model M { a group sideways { b; } }", "m.fm", de2)
                   .has_value());

  support::DiagnosticEngine de3;
  EXPECT_FALSE(
      parse_model("model M { a; constraint a requires ghost; }", "m.fm", de3)
          .has_value());
  EXPECT_TRUE(de3.contains_code("fm-parse"));

  support::DiagnosticEngine de4;
  EXPECT_FALSE(parse_model("model M { a ", "m.fm", de4).has_value());
}

TEST(TextFormat, CardinalityGroups) {
  auto m = parse_ok(R"(model M {
    cluster mandatory group [2..3] { a; b; c; d; }
}
)");
  ASSERT_TRUE(m.has_value());
  const Feature& cluster = m->feature(*m->find("cluster"));
  EXPECT_EQ(cluster.group, GroupKind::kCardinality);
  EXPECT_EQ(cluster.group_min, 2u);
  EXPECT_EQ(cluster.group_max, 3u);
  smt::Solver solver;
  EXPECT_EQ(count_products(*m, solver), 10u);

  // Round trip.
  std::string printed = print_model(*m);
  EXPECT_NE(printed.find("group [2..3]"), std::string::npos) << printed;
  auto reparsed = parse_ok(printed);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->feature(*reparsed->find("cluster")).group_max, 3u);
}

TEST(TextFormat, CardinalityWithSpaces) {
  auto m = parse_ok("model M { g group [1 .. 2] { a; b; } }\n");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->feature(*m->find("g")).group_min, 1u);
}

TEST(TextFormat, BadCardinalityRejected) {
  support::DiagnosticEngine de;
  EXPECT_FALSE(
      parse_model("model M { g group [3..1] { a; } }", "m.fm", de).has_value());
}

TEST(TextFormat, ExcludesConstraint) {
  auto m = parse_ok("model M { a; b; constraint a excludes b; }\n");
  ASSERT_TRUE(m.has_value());
  smt::Solver solver;
  EXPECT_EQ(count_products(*m, solver), 3u);  // {}, {a}, {b}
}

std::string nested_model(int depth) {
  std::string text = "model M {";
  for (int i = 0; i < depth; ++i) text += " f" + std::to_string(i) + " {";
  text += " leaf;";
  for (int i = 0; i < depth; ++i) text += " }";
  return text + " }\n";
}

// A feature body nested past dts::kMaxNesting is one located fm-parse
// error instead of a stack overflow.
TEST(ModelParserNesting, DeepModelIsOneLocatedError) {
  support::DiagnosticEngine de;
  EXPECT_FALSE(parse_model(nested_model(20000), "deep.fm", de).has_value());
  ASSERT_EQ(de.error_count(), 1u) << de.render();
  EXPECT_EQ(de.diagnostics().front().code, "fm-parse");
  EXPECT_NE(de.diagnostics().front().message.find("nests deeper than"),
            std::string::npos);
  EXPECT_TRUE(de.diagnostics().front().location.valid());
}

TEST(ModelParserNesting, RealisticDepthsParseCleanly) {
  auto m = parse_ok(nested_model(200));
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->find("leaf").has_value());
}

}  // namespace
}  // namespace llhsc::feature
