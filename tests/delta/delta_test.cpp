// Delta engine tests: the when/after semantics, application operations,
// provenance stamping, and the paper's Listing 4 ordering (E7).
#include "delta/delta.hpp"

#include <gtest/gtest.h>

#include "core/running_example.hpp"
#include "dts/printer.hpp"
#include "feature/analysis.hpp"
#include "dts/parser.hpp"

namespace llhsc::delta {
namespace {

TEST(WhenExpr, Evaluation) {
  auto e = WhenExpr::disj(WhenExpr::feature("a"),
                          WhenExpr::conj(WhenExpr::feature("b"),
                                         WhenExpr::negate(WhenExpr::feature("c"))));
  EXPECT_TRUE(e.evaluate({"a"}));
  EXPECT_TRUE(e.evaluate({"b"}));
  EXPECT_FALSE(e.evaluate({"b", "c"}));
  EXPECT_FALSE(e.evaluate({}));
  EXPECT_TRUE(WhenExpr::always().evaluate({}));
  std::set<std::string> feats;
  e.collect_features(feats);
  EXPECT_EQ(feats, (std::set<std::string>{"a", "b", "c"}));
}

TEST(DeltaParser, Listing4Structure) {
  support::DiagnosticEngine de;
  auto deltas = parse_deltas(R"(
delta d1 after d3 when veth0 {
    adds binding vEthernet {
        veth0@80000000 {
            compatible = "veth";
            reg = <0x80000000 0x10000000>;
            id = <0>;
        };
    }
}

delta d3 when (veth0 || veth1) {
    modifies / {
        #address-cells = <1>;
        #size-cells = <1>;
        vEthernet { };
    }
}

delta d4 after d3 when memory {
    modifies memory@40000000 {
        reg = <0x40000000 0x20000000 0x60000000 0x20000000>;
    }
}
)",
                             "deltas", de);
  ASSERT_FALSE(de.has_errors()) << de.render();
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0].name, "d1");
  EXPECT_EQ(deltas[0].after, (std::vector<std::string>{"d3"}));
  EXPECT_TRUE(deltas[0].when.evaluate({"veth0"}));
  EXPECT_FALSE(deltas[0].when.evaluate({"veth1"}));
  ASSERT_EQ(deltas[0].operations.size(), 1u);
  EXPECT_EQ(deltas[0].operations[0].kind, OpKind::kAdds);
  EXPECT_EQ(deltas[0].operations[0].target, "vEthernet");
  ASSERT_NE(deltas[0].operations[0].body, nullptr);
  EXPECT_EQ(deltas[0].operations[0].body->children().size(), 1u);

  EXPECT_TRUE(deltas[1].when.evaluate({"veth1"}));
  EXPECT_EQ(deltas[1].operations[0].kind, OpKind::kModifies);
  EXPECT_EQ(deltas[1].operations[0].target, "/");

  EXPECT_EQ(deltas[2].operations[0].target, "memory@40000000");
}

TEST(DeltaParser, RemovesOperations) {
  support::DiagnosticEngine de;
  auto deltas = parse_deltas(R"(
delta strip when !small {
    removes cpu@1;
    removes property uart@20000000 status;
}
)",
                             "deltas", de);
  ASSERT_FALSE(de.has_errors()) << de.render();
  ASSERT_EQ(deltas.size(), 1u);
  ASSERT_EQ(deltas[0].operations.size(), 2u);
  EXPECT_EQ(deltas[0].operations[0].kind, OpKind::kRemovesNode);
  EXPECT_EQ(deltas[0].operations[0].target, "cpu@1");
  EXPECT_EQ(deltas[0].operations[1].kind, OpKind::kRemovesProperty);
  EXPECT_EQ(deltas[0].operations[1].property_name, "status");
  EXPECT_FALSE(deltas[0].when.evaluate({"small"}));
  EXPECT_TRUE(deltas[0].when.evaluate({}));
}

TEST(DeltaParser, ErrorRecoverySkipsBadModule) {
  support::DiagnosticEngine de;
  auto deltas = parse_deltas(R"(
delta good1 { modifies / { x = <1>; } }
delta broken { frobnicates / { } }
delta good2 { modifies / { y = <2>; } }
)",
                             "deltas", de);
  EXPECT_TRUE(de.has_errors());
  // good1 parses; broken is reported; good2 recovers.
  ASSERT_GE(deltas.size(), 2u);
  EXPECT_EQ(deltas.front().name, "good1");
  EXPECT_EQ(deltas.back().name, "good2");
}

// A `when` condition nested past dts::kMaxNesting is one located error;
// the parser skips that module without recursing further, and the module
// after it still parses.
TEST(DeltaParserNesting, DeepWhenConditionsAreOneLocatedError) {
  for (const auto& [open, close] :
       {std::pair<std::string, std::string>{"(", ")"}, {"!", ""},
        {"!(", ")"}, {"(!", ")"}}) {
    std::string when;
    for (int i = 0; i < 100000; ++i) when += open;
    when += "a";
    for (int i = 0; i < 100000; ++i) when += close;
    support::DiagnosticEngine de;
    auto deltas = parse_deltas("delta deep when " + when +
                                   " { modifies / { x = <1>; } }\n"
                                   "delta next { modifies / { y = <2>; } }\n",
                               "deep.deltas", de);
    ASSERT_EQ(de.error_count(), 1u) << open << ": " << de.render();
    EXPECT_EQ(de.diagnostics().front().code, "delta-parse");
    EXPECT_NE(de.diagnostics().front().message.find("nests deeper than"),
              std::string::npos);
    EXPECT_TRUE(de.diagnostics().front().location.valid());
    ASSERT_EQ(deltas.size(), 1u) << open;
    EXPECT_EQ(deltas.front().name, "next");
  }
}

TEST(DeltaParserNesting, RealisticDepthsAndFlatChainsParseCleanly) {
  std::string nested = "a";
  for (int i = 0; i < 100; ++i) nested = "!(" + nested + ")";
  std::string chain = "a";
  for (int i = 0; i < 1000; ++i) chain += " || b" + std::to_string(i);
  for (const std::string& when : {nested, chain}) {
    support::DiagnosticEngine de;
    auto deltas = parse_deltas(
        "delta d when " + when + " { modifies / { x = <1>; } }", "d", de);
    ASSERT_FALSE(de.has_errors()) << de.render();
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_TRUE(deltas.front().when.evaluate({"a"}));
  }
}

std::unique_ptr<dts::Tree> simple_core() {
  support::DiagnosticEngine de;
  auto t = dts::parse_dts(R"(
/ {
    a { v = <1>; };
    b { w = <2>; kid { }; };
};
)",
                          "core.dts", de);
  EXPECT_FALSE(de.has_errors());
  return t;
}

DeltaModule make_delta(std::string name, Operation op,
                       WhenExpr when = WhenExpr::always(),
                       std::vector<std::string> after = {}) {
  DeltaModule d;
  d.name = std::move(name);
  d.when = std::move(when);
  d.after = std::move(after);
  d.operations.push_back(std::move(op));
  return d;
}

Operation modifies(std::string target, std::unique_ptr<dts::Node> body) {
  Operation op;
  op.kind = OpKind::kModifies;
  op.target = std::move(target);
  op.body = std::move(body);
  return op;
}

TEST(Apply, ModifiesOverridesAndStampsProvenance) {
  auto tree = simple_core();
  auto body = std::make_unique<dts::Node>("a");
  body->set_property(dts::Property::cells("v", {42}));
  body->set_property(dts::Property::cells("fresh", {7}));
  DeltaModule d = make_delta("dmod", modifies("a", std::move(body)));
  support::DiagnosticEngine de;
  ASSERT_TRUE(apply_delta(*tree, d, de)) << de.render();
  const dts::Node* a = tree->find("/a");
  EXPECT_EQ(a->find_property("v")->as_u32(), 42u);
  EXPECT_EQ(a->find_property("v")->provenance, "dmod");
  EXPECT_EQ(a->find_property("fresh")->as_u32(), 7u);
  EXPECT_EQ(a->provenance(), "dmod");
}

TEST(Apply, AddsRejectsExistingChild) {
  auto tree = simple_core();
  auto body = std::make_unique<dts::Node>("b");
  body->add_child(std::make_unique<dts::Node>("kid"));
  Operation op;
  op.kind = OpKind::kAdds;
  op.target = "b";
  op.body = std::move(body);
  DeltaModule d = make_delta("dadd", std::move(op));
  support::DiagnosticEngine de;
  EXPECT_FALSE(apply_delta(*tree, d, de));
  EXPECT_TRUE(de.contains_code("delta-apply"));
}

TEST(Apply, AddsNewChildAndProperty) {
  auto tree = simple_core();
  auto body = std::make_unique<dts::Node>("b");
  body->set_property(dts::Property::cells("z", {9}));
  body->add_child(std::make_unique<dts::Node>("kid2"));
  Operation op;
  op.kind = OpKind::kAdds;
  op.target = "b";
  op.body = std::move(body);
  DeltaModule d = make_delta("dadd", std::move(op));
  support::DiagnosticEngine de;
  ASSERT_TRUE(apply_delta(*tree, d, de)) << de.render();
  EXPECT_NE(tree->find("/b/kid2"), nullptr);
  EXPECT_EQ(tree->find("/b/kid2")->provenance(), "dadd");
  EXPECT_EQ(tree->find("/b")->find_property("z")->as_u32(), 9u);
}

TEST(Apply, RemovesNodeAndProperty) {
  auto tree = simple_core();
  Operation rm_node;
  rm_node.kind = OpKind::kRemovesNode;
  rm_node.target = "kid";
  Operation rm_prop;
  rm_prop.kind = OpKind::kRemovesProperty;
  rm_prop.target = "a";
  rm_prop.property_name = "v";
  DeltaModule d;
  d.name = "strip";
  d.operations.push_back(std::move(rm_node));
  d.operations.push_back(std::move(rm_prop));
  support::DiagnosticEngine de;
  ASSERT_TRUE(apply_delta(*tree, d, de)) << de.render();
  EXPECT_EQ(tree->find("/b/kid"), nullptr);
  EXPECT_EQ(tree->find("/a")->find_property("v"), nullptr);
}

TEST(Apply, AbsolutePathTargets) {
  auto tree = simple_core();
  auto body = std::make_unique<dts::Node>("kid");
  body->set_property(dts::Property::cells("deep", {5}));
  DeltaModule d = make_delta("dpath", modifies("/b/kid", std::move(body)));
  support::DiagnosticEngine de;
  ASSERT_TRUE(apply_delta(*tree, d, de)) << de.render();
  EXPECT_EQ(tree->find("/b/kid")->find_property("deep")->as_u32(), 5u);
}

TEST(DeltaParser, PathTargets) {
  support::DiagnosticEngine de;
  auto deltas = parse_deltas(R"(
delta d { modifies /soc/uart@1000 { status = "okay"; } }
)",
                             "deltas", de);
  ASSERT_FALSE(de.has_errors()) << de.render();
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].operations[0].target, "/soc/uart@1000");
}

TEST(Apply, UnknownTargetIsError) {
  auto tree = simple_core();
  DeltaModule d = make_delta(
      "dbad", modifies("nothere", std::make_unique<dts::Node>("nothere")));
  support::DiagnosticEngine de;
  EXPECT_FALSE(apply_delta(*tree, d, de));
  EXPECT_TRUE(de.contains_code("delta-apply"));
}

// ---- ProductLine: activation + ordering (E7) ----

TEST(ProductLine, ActivationFollowsWhen) {
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr) << de.render();
  auto active = pl->active_deltas(core::fig1b_features());
  std::vector<std::string> names;
  for (const DeltaModule* d : active) names.push_back(d->name);
  // veth0 product: d3 (veth0||veth1), d4 (memory), d1 (veth0), d5, d6
  // (uarts), rm_cpu1 (!cpu@1).
  EXPECT_EQ(names, (std::vector<std::string>{"d3", "d4", "d1", "d5", "d6",
                                             "rm_cpu1"}));
}

// E7 — paper §III-B: "The induced strict partial order between deltas for
// the [veth0 VM] is d3 < d4 < d1 while the [veth1 VM] is d3 < d4 < d2."
// (The paper prints the two orders swapped relative to its own Fig. 1b/1c
// feature assignments; the partial-order content is identical.)
TEST(ProductLine, PaperApplicationOrder) {
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr);

  auto order1 = pl->application_order(core::fig1b_features(), de);
  ASSERT_TRUE(order1.has_value()) << de.render();
  auto pos = [&](const std::vector<const DeltaModule*>& order,
                 std::string_view name) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i]->name == name) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(*order1, "d3"), pos(*order1, "d4"));
  EXPECT_LT(pos(*order1, "d4"), pos(*order1, "d1"));

  auto order2 = pl->application_order(core::fig1c_features(), de);
  ASSERT_TRUE(order2.has_value());
  EXPECT_LT(pos(*order2, "d3"), pos(*order2, "d4"));
  EXPECT_LT(pos(*order2, "d4"), pos(*order2, "d2"));
}

TEST(ProductLine, CycleDetection) {
  support::DiagnosticEngine de;
  auto core_tree = simple_core();
  DeltaModule a = make_delta("a", modifies("a", std::make_unique<dts::Node>("a")),
                             WhenExpr::always(), {"b"});
  DeltaModule b = make_delta("b", modifies("b", std::make_unique<dts::Node>("b")),
                             WhenExpr::always(), {"a"});
  std::vector<DeltaModule> ds;
  ds.push_back(std::move(a));
  ds.push_back(std::move(b));
  ProductLine pl(std::move(core_tree), std::move(ds));
  EXPECT_FALSE(pl.application_order({}, de).has_value());
  EXPECT_TRUE(de.contains_code("delta-order"));
}

TEST(ProductLine, AfterUnknownDeltaIsError) {
  support::DiagnosticEngine de;
  auto core_tree = simple_core();
  DeltaModule a = make_delta("a", modifies("a", std::make_unique<dts::Node>("a")),
                             WhenExpr::always(), {"ghost"});
  std::vector<DeltaModule> ds;
  ds.push_back(std::move(a));
  ProductLine pl(std::move(core_tree), std::move(ds));
  EXPECT_FALSE(pl.application_order({}, de).has_value());
}

TEST(ProductLine, AfterInactiveDeltaImposesNoConstraint) {
  support::DiagnosticEngine de;
  auto core_tree = simple_core();
  // b after a, but a is inactive: b still applies.
  DeltaModule a = make_delta("a", modifies("a", std::make_unique<dts::Node>("a")),
                             WhenExpr::feature("never"));
  auto body = std::make_unique<dts::Node>("b");
  body->set_property(dts::Property::cells("applied", {1}));
  DeltaModule b = make_delta("b", modifies("b", std::move(body)),
                             WhenExpr::always(), {"a"});
  std::vector<DeltaModule> ds;
  ds.push_back(std::move(a));
  ds.push_back(std::move(b));
  ProductLine pl(std::move(core_tree), std::move(ds));
  auto tree = pl.derive({}, de);
  ASSERT_NE(tree, nullptr) << de.render();
  EXPECT_NE(tree->find("/b")->find_property("applied"), nullptr);
}

TEST(ProductLine, DeriveFig1bProducesExpectedTree) {
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr);
  auto tree = pl->derive(core::fig1b_features(), de);
  ASSERT_NE(tree, nullptr) << de.render();
  // d3: 32-bit addressing + vEthernet node.
  EXPECT_EQ(tree->root().address_cells_or_default(), 1u);
  EXPECT_EQ(tree->root().size_cells_or_default(), 1u);
  // d1: veth0 with provenance.
  const dts::Node* veth0 = tree->find("/vEthernet/veth0@80000000");
  ASSERT_NE(veth0, nullptr);
  EXPECT_EQ(veth0->provenance(), "d1");
  // d4: memory rewritten to two 32-bit banks.
  auto reg = tree->find("/memory@40000000")->find_property("reg");
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->provenance, "d4");
  EXPECT_EQ(reg->as_cells()->size(), 4u);
  // rm_cpu1: cpu@1 removed, cpu@0 kept.
  EXPECT_EQ(tree->find("/cpus/cpu@1"), nullptr);
  EXPECT_NE(tree->find("/cpus/cpu@0"), nullptr);
  // No veth1 (d2 inactive).
  EXPECT_EQ(tree->find("/vEthernet/veth1@70000000"), nullptr);
}

TEST(ProductLine, DeriveWithoutVethKeepsCore64Bit) {
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr);
  std::set<std::string> features{"CustomSBC", "memory", "cpus", "cpu@0",
                                 "uarts",     "uart@20000000"};
  auto tree = pl->derive(features, de);
  ASSERT_NE(tree, nullptr) << de.render();
  EXPECT_EQ(tree->root().address_cells_or_default(), 2u);
  EXPECT_EQ(tree->find("/vEthernet"), nullptr);
  EXPECT_EQ(tree->find("/memory@40000000")->find_property("reg")
                ->as_cells()->size(),
            8u)
      << "without d3/d4 the 64-bit banks stay";
  EXPECT_EQ(tree->find("/uart@30000000"), nullptr) << "rm_uart1 active";
}

// ---- property tests over the engine ----

TEST(ProductLineProperties, DerivationIsDeterministic) {
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr);
  auto t1 = pl->derive(core::fig1b_features(), de);
  auto t2 = pl->derive(core::fig1b_features(), de);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(dts::print_dts(*t1), dts::print_dts(*t2));
}

TEST(ProductLineProperties, DerivationDoesNotMutateCore) {
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr);
  std::string before = dts::print_dts(pl->core());
  (void)pl->derive(core::fig1b_features(), de);
  (void)pl->derive(core::fig1c_features(), de);
  EXPECT_EQ(dts::print_dts(pl->core()), before);
}

TEST(ProductLineProperties, ModifiesIsIdempotent) {
  // Applying the same `modifies` delta twice equals applying it once.
  auto tree1 = simple_core();
  auto tree2 = simple_core();
  auto body = [] {
    auto b = std::make_unique<dts::Node>("a");
    b->set_property(dts::Property::cells("v", {42}));
    return b;
  };
  DeltaModule d = make_delta("dmod", modifies("a", body()));
  support::DiagnosticEngine de;
  ASSERT_TRUE(apply_delta(*tree1, d, de));
  ASSERT_TRUE(apply_delta(*tree2, d, de));
  ASSERT_TRUE(apply_delta(*tree2, d, de));
  EXPECT_EQ(dts::print_dts(*tree1), dts::print_dts(*tree2));
}

TEST(ProductLineProperties, IndependentModifiesCommute) {
  // Deltas touching disjoint nodes produce the same tree in either order.
  auto make = [](bool swap) {
    support::DiagnosticEngine de;
    auto tree = simple_core();
    auto body_a = std::make_unique<dts::Node>("a");
    body_a->set_property(dts::Property::cells("v", {10}));
    auto body_b = std::make_unique<dts::Node>("b");
    body_b->set_property(dts::Property::cells("w", {20}));
    DeltaModule da = make_delta("da", modifies("a", std::move(body_a)));
    DeltaModule db = make_delta("db", modifies("b", std::move(body_b)));
    if (swap) {
      apply_delta(*tree, db, de);
      apply_delta(*tree, da, de);
    } else {
      apply_delta(*tree, da, de);
      apply_delta(*tree, db, de);
    }
    return dts::print_dts(*tree);
  };
  EXPECT_EQ(make(false), make(true));
}

TEST(ProductLineProperties, OrderRespectsEveryAfterEdge) {
  // For every product of the running example, the application order must
  // satisfy all after-edges among active deltas.
  support::DiagnosticEngine de;
  auto pl = core::running_example_product_line(de);
  ASSERT_NE(pl, nullptr);
  feature::FeatureModel model = feature::running_example_model();
  smt::Solver solver;
  feature::enumerate_products(model, solver, [&](const feature::Selection& sel) {
    std::set<std::string> features;
    for (uint32_t i = 0; i < model.size(); ++i) {
      if (sel[i]) features.insert(model.feature(feature::FeatureId{i}).name);
    }
    support::DiagnosticEngine d;
    auto order = pl->application_order(features, d);
    EXPECT_TRUE(order.has_value()) << d.render();
    if (!order) return true;
    auto pos = [&](std::string_view name) {
      for (size_t i = 0; i < order->size(); ++i) {
        if ((*order)[i]->name == name) return static_cast<int>(i);
      }
      return -1;
    };
    for (const DeltaModule* dm : *order) {
      for (const std::string& dep : dm->after) {
        int dep_pos = pos(dep);
        if (dep_pos >= 0) {
          EXPECT_LT(dep_pos, pos(dm->name))
              << dm->name << " must come after " << dep;
        }
      }
    }
    return true;
  });
}

}  // namespace
}  // namespace llhsc::delta
