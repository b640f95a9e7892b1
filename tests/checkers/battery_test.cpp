// Checker battery tests: one analysis context and at most one device graph
// per check, whatever stages run, and the battery's findings equal the
// stand-alone checkers' on the same tree.
#include "checkers/battery.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checkers/crossref/rules.hpp"
#include "checkers/graph/rules.hpp"
#include "dts/parser.hpp"
#include "obs/obs.hpp"
#include "schema/builtin_schemas.hpp"

namespace llhsc::checkers {
namespace {

// A board every stage has work on: a clock web with one truncated entry,
// an interrupt controller and a client, and two overlapping regions.
constexpr const char* kBoard = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    intc: interrupt-controller@1000 {
        reg = <0x1000 0x100>;
        interrupt-controller;
        #interrupt-cells = <2>;
    };
    clk: clock-controller@2000 {
        reg = <0x2000 0x100>;
        #clock-cells = <1>;
    };
    serial@2080 {
        compatible = "ns16550a";
        reg = <0x2080 0x100>;
        interrupt-parent = <&intc>;
        interrupts = <5 4>;
        clocks = <&clk 0 &clk>;
    };
};
)";

std::unique_ptr<dts::Tree> parse_board() {
  support::DiagnosticEngine de;
  auto tree = dts::parse_dts(kBoard, "board.dts", de);
  EXPECT_FALSE(de.has_errors()) << de.render();
  return tree;
}

size_t count_spans(const std::vector<obs::Event>& events,
                   std::string_view name) {
  size_t n = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::Event::Kind::kSpan && e.name == name) ++n;
  }
  return n;
}

struct Traced {
  BatteryResult result;
  std::vector<obs::Event> events;
};

Traced run_traced(const dts::Tree& tree, const BatteryOptions& options,
                  const GraphSource& graph_source) {
  obs::TraceSink sink;
  Traced out;
  {
    obs::ScopedSink guard(&sink);
    out.result = run_battery(tree, options, graph_source);
  }
  out.events = sink.take();
  return out;
}

TEST(Battery, EveryStageSharesOneContextAndOneGraph) {
  auto tree = parse_board();
  const schema::SchemaSet schemas = schema::builtin_schemas();
  BatteryOptions options;
  options.schemas = &schemas;
  const Traced traced = run_traced(*tree, options, nullptr);
  ASSERT_EQ(traced.result.stages.size(), 5u);
  EXPECT_EQ(count_spans(traced.events, "context.build"), 1u);
  EXPECT_EQ(count_spans(traced.events, "graph.build"), 1u);

  // Neither build is attributed to a stage.
  for (const obs::Event& e : traced.events) {
    if (e.name == "context.build" || e.name == "graph.build") {
      EXPECT_EQ(e.scope, "") << e.name;
    }
  }

  // Lint and syntactic alone share the one context and build no graph.
  options.crossref = false;
  options.graph = false;
  options.semantics = false;
  const Traced structural = run_traced(*tree, options, nullptr);
  ASSERT_EQ(structural.result.stages.size(), 2u);
  EXPECT_EQ(count_spans(structural.events, "context.build"), 1u);
  EXPECT_EQ(count_spans(structural.events, "graph.build"), 0u);
}

TEST(Battery, PrebuiltGraphIsNeverRebuilt) {
  auto tree = parse_board();
  const schema::SchemaSet schemas = schema::builtin_schemas();
  BatteryOptions options;
  options.schemas = &schemas;
  auto prebuilt = std::make_shared<const graph::DeviceGraph>(
      graph::DeviceGraph::build(*tree));
  int asked = 0;
  const Traced traced =
      run_traced(*tree, options, [&](const crossref::AnalysisContext&) {
        ++asked;
        return prebuilt;
      });
  EXPECT_EQ(count_spans(traced.events, "context.build"), 1u);
  EXPECT_EQ(count_spans(traced.events, "graph.build"), 0u);
  EXPECT_EQ(asked, 1);
}

TEST(Battery, LintAloneBuildsOneContextAndNoGraph) {
  auto tree = parse_board();
  BatteryOptions options;
  options.crossref = false;
  options.graph = false;
  options.semantics = false;
  const Traced traced = run_traced(*tree, options, nullptr);
  ASSERT_EQ(traced.result.stages.size(), 1u);
  EXPECT_EQ(count_spans(traced.events, "context.build"), 1u);
  EXPECT_EQ(count_spans(traced.events, "graph.build"), 0u);
}

TEST(Battery, NoStageBuildsNothing) {
  auto tree = parse_board();
  BatteryOptions options;
  options.lint = false;
  options.crossref = false;
  options.graph = false;
  options.semantics = false;
  const Traced traced = run_traced(*tree, options, nullptr);
  EXPECT_TRUE(traced.result.stages.empty());
  EXPECT_EQ(count_spans(traced.events, "context.build"), 0u);
}

TEST(Battery, CrossrefAloneBuildsTheGraphButDoesNotReturnIt) {
  auto tree = parse_board();
  BatteryOptions options;
  options.lint = false;
  options.graph = false;
  options.semantics = false;
  const Traced traced = run_traced(*tree, options, nullptr);
  EXPECT_EQ(count_spans(traced.events, "graph.build"), 1u);
}

TEST(Battery, FindingsEqualTheStandAloneCheckers) {
  auto tree = parse_board();
  BatteryOptions options;
  options.lint = false;
  options.semantics = false;
  const BatteryResult result = run_battery(*tree, options);
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_EQ(render(result.stages[0]),
            render(crossref::CrossRefChecker().check(*tree)));
  EXPECT_EQ(render(result.stages[1]),
            render(graph::GraphChecker().check(
                graph::DeviceGraph::build(*tree))));
  EXPECT_FALSE(result.stages[0].empty()) << "the board seeds a defect";
}

// fingerprint() keys every daemon and session verdict: each option that
// can change a verdict must move the key, and the schema set (keyed by its
// text instead) must not.
TEST(Battery, FingerprintCoversEveryVerdictOption) {
  const BatteryOptions base;
  const uint64_t key = fingerprint(base);
  EXPECT_EQ(fingerprint(BatteryOptions{}), key) << "deterministic";

  using Flip = void (*)(BatteryOptions&);
  const std::vector<std::pair<const char*, Flip>> flips = {
      {"backend", [](BatteryOptions& o) { o.backend = smt::Backend::kZ3; }},
      {"lint", [](BatteryOptions& o) { o.lint = false; }},
      {"crossref", [](BatteryOptions& o) { o.crossref = false; }},
      {"graph", [](BatteryOptions& o) { o.graph = false; }},
      {"syntax", [](BatteryOptions& o) { o.syntax = false; }},
      {"semantics", [](BatteryOptions& o) { o.semantics = false; }},
      {"disabled rule",
       [](BatteryOptions& o) { o.rules.disabled.insert("phandle-dangling"); }},
      {"severity override",
       [](BatteryOptions& o) {
         o.rules.severity_overrides["phandle-dangling"] =
             FindingSeverity::kWarning;
       }},
      {"address_bits", [](BatteryOptions& o) { o.semantic.address_bits = 32; }},
      {"plan", [](BatteryOptions& o) { o.semantic.plan = false; }},
      {"solver_timeout_ms",
       [](BatteryOptions& o) { o.semantic.solver_timeout_ms = 500; }},
      {"cache_dir", [](BatteryOptions& o) { o.semantic.cache_dir = "qc"; }},
  };
  for (const auto& [name, flip] : flips) {
    BatteryOptions flipped;
    flip(flipped);
    EXPECT_NE(fingerprint(flipped), key) << name;
  }

  const schema::SchemaSet schemas = schema::builtin_schemas();
  BatteryOptions with_schemas;
  with_schemas.schemas = &schemas;
  EXPECT_EQ(fingerprint(with_schemas), key) << "schemas are keyed by text";
}

}  // namespace
}  // namespace llhsc::checkers
