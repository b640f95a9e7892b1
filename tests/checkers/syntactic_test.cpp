// Syntactic checker tests — paper §IV-B / E6. Parameterized over both
// solver backends.
#include "checkers/syntactic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <set>
#include <tuple>

#include "dts/parser.hpp"
#include "schema/builtin_schemas.hpp"
#include "schema/yaml_lite.hpp"
#include "support/strings.hpp"

namespace llhsc::checkers {
namespace {

std::unique_ptr<dts::Tree> parse_ok(std::string_view src) {
  support::DiagnosticEngine de;
  auto t = dts::parse_dts(src, "t.dts", de);
  EXPECT_FALSE(de.has_errors()) << de.render();
  return t;
}

using FindingKey = std::tuple<int, std::string, std::string>;

// The findings as a sorted (kind, subject, property) multiset.
std::vector<FindingKey> sorted_keys(const Findings& found) {
  std::vector<FindingKey> keys;
  for (const Finding& f : found) {
    keys.emplace_back(static_cast<int>(f.kind), f.subject, f.property);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class SyntacticTest : public ::testing::TestWithParam<smt::Backend> {
 protected:
  schema::SchemaSet schemas = schema::builtin_schemas();
  Findings check(const dts::Tree& tree) {
    SyntacticChecker checker(schemas, GetParam());
    return checker.check(tree);
  }
};

// E6: Listing 5 — a well-formed memory node passes.
TEST_P(SyntacticTest, ValidMemoryNodePasses) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u) << render(f);
}

TEST_P(SyntacticTest, MissingRequiredPropertyFlagged) {
  auto tree = parse_ok(R"(
/ {
    memory@40000000 { device_type = "memory"; };
};
)");
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kMissingRequired)) << render(f);
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kMissingRequired) {
      EXPECT_EQ(finding.property, "reg");
      EXPECT_EQ(finding.subject, "/memory@40000000");
    }
  }
}

// E6: constraint (1) — device_type must be the constant "memory".
TEST_P(SyntacticTest, ConstMismatchFlagged) {
  auto tree = parse_ok(R"(
/ {
    memory@40000000 { device_type = "ram"; reg = <0x0 0x1000 0x0 0x100>; };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kConstMismatch)) << render(f);
}

TEST_P(SyntacticTest, EnumViolationFlagged) {
  auto tree = parse_ok(R"(
/ {
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 {
            compatible = "intel,i486";
            device_type = "cpu";
            reg = <0>;
        };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kEnumViolation)) << render(f);
}

// The paper's §I-A reg-shape rule: "each sub-array must have size 4" when
// #address-cells = #size-cells = 2.
TEST_P(SyntacticTest, RegShapeRuleAcceptsMultiples) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u) << render(f);
}

TEST_P(SyntacticTest, RegShapeRuleRejectsPartialEntry) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000>;
    };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kRegShapeViolation)) << render(f);
}

TEST_P(SyntacticTest, RegShapeRuleRejectsEmptyReg) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <>; };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kRegShapeViolation) ||
              contains(f, FindingKind::kItemCountViolation))
      << render(f);
}

// The §IV-C setup seen purely syntactically: after truncation to 1/1 cells
// the 8-cell reg is STILL shape-valid ("dt-schema assumes that any multiple
// ... is valid") — the syntactic checker must NOT flag it.
TEST_P(SyntacticTest, TruncatedAddressingPassesSyntactically) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u)
      << "dt-schema-style checks accept any multiple of the stride: "
      << render(f);
}

TEST_P(SyntacticTest, ItemCountViolationFlagged) {
  // cpu reg must have exactly 1 entry.
  auto tree = parse_ok(R"(
/ {
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            reg = <0 1 2>;
        };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kItemCountViolation)) << render(f);
}

TEST_P(SyntacticTest, TypeMismatchFlagged) {
  auto tree = parse_ok(R"(
/ {
    memory@40000000 { device_type = <1>; reg = <0x0 0x1000 0x0 0x10>; };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kTypeMismatch)) << render(f);
}

TEST_P(SyntacticTest, ChildRuleMinCount) {
  auto tree = parse_ok(R"(
/ {
    cpus { #address-cells = <1>; #size-cells = <0>; };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kChildRuleViolation)) << render(f);
}

TEST_P(SyntacticTest, CpusConstCellsChecked) {
  auto tree = parse_ok(R"(
/ {
    cpus {
        #address-cells = <2>;
        #size-cells = <0>;
        cpu@0 { compatible = "arm,cortex-a53"; device_type = "cpu"; reg = <0>; };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kConstMismatch)) << render(f);
}

TEST_P(SyntacticTest, VethBindingChecked) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    vEthernet {
        veth0@80000000 {
            compatible = "veth";
            reg = <0x80000000 0x10000000>;
            id = <7>;
        };
    };
};
)");
  Findings f = check(*tree);
  // id = 7 outside enum {0,1,2,3}.
  EXPECT_TRUE(contains(f, FindingKind::kEnumViolation)) << render(f);
}

TEST_P(SyntacticTest, FindingsCarryDeltaProvenance) {
  auto tree = parse_ok(R"(
/ {
    memory@40000000 { device_type = "ram"; reg = <0x0 0x1 0x0 0x1>; };
};
)");
  dts::Node* mem = tree->find("/memory@40000000");
  mem->find_property("device_type")->provenance = "d9";
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kConstMismatch));
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kConstMismatch) {
      EXPECT_EQ(finding.delta, "d9");
    }
  }
}

TEST_P(SyntacticTest, AdditionalPropertiesEnforced) {
  schema::SchemaSet strict;
  schema::PropertySchema reg;
  reg.name = "reg";
  strict.add(schema::SchemaBuilder("strict")
                 .select_node_name("gadget@*")
                 .property(std::move(reg))
                 .no_additional_properties()
                 .build());
  auto tree = parse_ok("/ { gadget@1 { reg = <1 2>; rogue = <3>; }; };");
  SyntacticChecker checker(strict, GetParam());
  Findings f = checker.check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kUnknownProperty)) << render(f);
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kUnknownProperty) {
      EXPECT_EQ(finding.property, "rogue");
    }
  }
}

TEST_P(SyntacticTest, MinimumMaximumCellBounds) {
  // Manufacturer-range constraints (§II-A): clock frequencies etc.
  schema::SchemaSet set;
  schema::PropertySchema clk;
  clk.name = "clock-frequency";
  clk.type = schema::PropertyType::kCells;
  clk.minimum = 1000000;    // 1 MHz
  clk.maximum = 100000000;  // 100 MHz
  set.add(schema::SchemaBuilder("clocked")
              .select_node_name("osc@*")
              .property(std::move(clk))
              .no_reg_shape_check()
              .build());

  auto good = parse_ok("/ { osc@1 { clock-frequency = <24000000>; }; };");
  auto too_low = parse_ok("/ { osc@1 { clock-frequency = <1000>; }; };");
  auto too_high = parse_ok("/ { osc@1 { clock-frequency = <0x10000000>; }; };");

  SyntacticChecker checker(set, GetParam());
  EXPECT_EQ(error_count(checker.check(*good)), 0u);
  EXPECT_TRUE(contains(checker.check(*too_low), FindingKind::kEnumViolation));
  EXPECT_TRUE(contains(checker.check(*too_high), FindingKind::kEnumViolation));
}

TEST_P(SyntacticTest, MinimumMaximumFromYaml) {
  const char* yaml = R"($id: clocked
select:
  nodeName: "osc@*"
properties:
  clock-frequency:
    type: cells
    minimum: 1000000
    maximum: 100000000
regShapeCheck: false
)";
  support::DiagnosticEngine de;
  schema::SchemaSet set;
  ASSERT_EQ(schema::load_schema_stream(yaml, set, de), 1u) << de.render();
  auto bad = parse_ok("/ { osc@1 { clock-frequency = <5>; }; };");
  SyntacticChecker checker(set, GetParam());
  EXPECT_TRUE(contains(checker.check(*bad), FindingKind::kEnumViolation));
}

TEST_P(SyntacticTest, SolverIsActuallyConsulted) {
  auto tree = parse_ok(R"(
/ {
    memory@40000000 { device_type = "memory"; reg = <0x0 0x1000 0x0 0x10>; };
};
)");
  SyntacticChecker checker(schemas, GetParam());
  (void)checker.check(*tree);
  EXPECT_GT(checker.solver_checks(), 0u)
      << "the checker must discharge constraints through the solver";
}

uint64_t planner_calls(const SyntacticChecker& checker) {
  const smt::QueryPlanStats& s = checker.plan_stats();
  return s.queries_issued + s.memo_hits + s.cache_hits;
}

// Instances that differ only in values no constraint reads (unit address,
// reg base) pose the same obligations, which the checker decides once: a
// ladder of UARTs costs the planner, and so the solver, what a single UART
// does.
TEST_P(SyntacticTest, IdenticalInstancesCostOneInstanceOfSolverChecks) {
  auto board = [](int uarts) {
    std::string src =
        "/ {\n    #address-cells = <1>;\n    #size-cells = <1>;\n";
    for (int i = 0; i < uarts; ++i) {
      const std::string addr = support::hex(0x10000000u + 0x1000u * i);
      src += "    uart@" + addr.substr(2) + " { compatible = \"ns16550a\"; " +
             "reg = <" + addr + " 0x100>; };\n";
    }
    return parse_ok(src + "};\n");
  };
  SyntacticChecker one(schemas, GetParam());
  SyntacticChecker ladder(schemas, GetParam());
  EXPECT_EQ(error_count(one.check(*board(1))), 0u);
  EXPECT_EQ(error_count(ladder.check(*board(8))), 0u);
  EXPECT_GT(one.solver_checks(), 0u);
  EXPECT_EQ(ladder.solver_checks(), one.solver_checks());
  EXPECT_GT(planner_calls(one), 0u);
  EXPECT_EQ(planner_calls(ladder), planner_calls(one));
}

// A shared verdict is keyed by every input its query is built from: the
// reg stride, the constraint and which of its rules. Each pair of
// instances below agrees on every other input, so a key missing one of
// them hands the second instance the first one's verdict.
TEST_P(SyntacticTest, SharedVerdictsKeepEveryQueryInput) {
  schema::PropertySchema x;
  x.name = "x";
  x.type = schema::PropertyType::kCells;
  x.const_cell = 1;
  x.enum_cells = {1, 2};
  schema::PropertySchema y;
  y.name = "y";
  y.type = schema::PropertyType::kCells;
  y.enum_cells = {2};
  schema::PropertySchema reg;
  reg.name = "reg";
  reg.type = schema::PropertyType::kCells;
  schema::SchemaSet set;
  set.add(schema::SchemaBuilder("keyed")
              .select_node_name("dev@*")
              .property(std::move(x))
              .property(std::move(y))
              .property(std::move(reg))
              .build());
  // Four cells are two entries under stride 2 but not under stride 3;
  // three cells the other way round. x = <2> passes its enum and fails its
  // const; y = <1> fails the enum x's value 1 passes.
  auto tree = parse_ok(R"(
/ {
    a { #address-cells = <1>; #size-cells = <1>;
        dev@0 { reg = <0 1 2 3>; x = <1>; y = <2>; }; };
    b { #address-cells = <2>; #size-cells = <1>;
        dev@0 { reg = <0 1 2 3>; x = <2>; y = <1>; }; };
    c { #address-cells = <1>; #size-cells = <1>;
        dev@0 { reg = <0 1 2>; }; };
    d { #address-cells = <2>; #size-cells = <1>;
        dev@0 { reg = <0 1 2>; }; };
};
)");
  SyntacticChecker checker(set, GetParam());
  const Findings found = checker.check(*tree);
  std::vector<FindingKey> want = {
      {static_cast<int>(FindingKind::kRegShapeViolation), "/b/dev@0", "reg"},
      {static_cast<int>(FindingKind::kRegShapeViolation), "/c/dev@0", "reg"},
      {static_cast<int>(FindingKind::kConstMismatch), "/b/dev@0", "x"},
      {static_cast<int>(FindingKind::kEnumViolation), "/b/dev@0", "y"},
  };
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sorted_keys(found), want) << render(found);
}

INSTANTIATE_TEST_SUITE_P(Backends, SyntacticTest,
                         ::testing::ValuesIn(smt::all_backends()),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

// -- Property suite: random schemas and nodes against a direct oracle --
//
// Each seed draws one schema over "dev@*" nodes — string const/enum,
// single-cell const/enum, per-cell minimum/maximum, reg minItems/maxItems,
// the reg-shape rule, a child-count rule, required properties and, on some
// seeds, additionalProperties: false — and a board whose values straddle
// every bound. The oracle evaluates each constraint directly on the
// concrete values; the checker must report exactly the same
// (kind, subject, property) multiset through the solver. With `copies` > 1
// every drawn node appears that many times, so each value repeats across
// that many instances.

struct SchemaCase {
  uint32_t seed;
  smt::Backend backend;
};

// Names the parameter in test listings (gtest would otherwise print its
// bytes, padding included).
void PrintTo(const SchemaCase& c, std::ostream* os) {
  *os << smt::to_string(c.backend) << "_seed" << c.seed;
}

struct RandomBoard {
  schema::SchemaSet schemas;
  std::string dts;
  std::vector<FindingKey> expected;  // the oracle's verdict, sorted
  // The distinct (constraint, value) pairs the board poses: an upper bound
  // on the obligations a checker must decide.
  size_t obligations = 0;
};

RandomBoard random_board(uint32_t seed, uint32_t copies = 1) {
  std::mt19937 rng(seed);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
  auto coin = [&] { return pick(2) == 0; };
  const std::vector<std::string> words = {"alpha", "beta", "gamma", "delta"};

  // -- the schema --
  schema::PropertySchema mode;
  mode.name = "mode";
  mode.type = schema::PropertyType::kString;
  if (coin()) {
    mode.const_string = words[pick(4)];
  } else {
    for (const std::string& w : words) {
      if (coin()) mode.enum_strings.push_back(w);
    }
    if (mode.enum_strings.empty()) mode.enum_strings.push_back(words[0]);
  }
  schema::PropertySchema level;
  level.name = "level";
  level.type = schema::PropertyType::kCells;
  if (coin()) {
    level.const_cell = pick(4);
  } else {
    for (uint64_t v = 0; v < 4; ++v) {
      if (coin()) level.enum_cells.push_back(v);
    }
    if (level.enum_cells.empty()) level.enum_cells.push_back(0);
  }
  schema::PropertySchema freq;
  freq.name = "freq";
  freq.type = schema::PropertyType::kCells;
  if (coin()) freq.minimum = pick(10);
  if (!freq.minimum || coin()) freq.maximum = 10 + pick(10);
  schema::PropertySchema reg;
  reg.name = "reg";
  reg.type = schema::PropertyType::kCells;
  if (coin()) reg.min_items = 1 + pick(2);
  if (coin()) reg.max_items = reg.min_items.value_or(1) + pick(2);
  schema::ChildRule children;
  children.name_pattern = "sub@*";
  if (coin()) children.min_count = pick(2);
  if (!children.min_count || coin()) {
    children.max_count = children.min_count.value_or(0) + pick(3);
  }
  schema::SchemaBuilder builder("random");
  builder.select_node_name("dev@*")
      .property(mode)
      .property(level)
      .property(freq)
      .property(reg)
      .child(children);
  for (const char* name : {"mode", "level", "reg"}) {
    if (coin()) builder.require(name);
  }
  if (coin()) builder.no_additional_properties();
  const schema::NodeSchema s = builder.build();
  RandomBoard board;
  board.schemas.add(s);

  // -- the board and the oracle --
  const uint32_t address_cells = 1 + pick(2);
  const uint32_t size_cells = pick(2);
  const uint32_t stride = address_cells + size_cells;
  board.dts = "/ {\n    #address-cells = <" + std::to_string(address_cells) +
              ">;\n    #size-cells = <" + std::to_string(size_cells) + ">;\n";
  auto cells_text = [](const std::vector<uint64_t>& cells) {
    std::string out = "<";
    for (size_t i = 0; i < cells.size(); ++i) {
      out += (i == 0 ? "" : " ") + std::to_string(cells[i]);
    }
    return out + ">";
  };
  // One drawn node's findings, as (kind, property), and the obligations it
  // poses, as (constraint, value).
  std::vector<std::pair<FindingKind, std::string>> faults;
  std::set<std::pair<std::string, uint64_t>> obligations;
  auto expect = [&](FindingKind kind, const std::string& property) {
    faults.emplace_back(kind, property);
  };
  const uint32_t nodes = 3 + pick(4);
  for (uint32_t n = 0; n < nodes; ++n) {
    faults.clear();
    std::string body;
    std::set<std::string> present;
    if (pick(4) != 0) {
      const uint32_t w = pick(4);
      const std::string& v = words[w];
      body += " mode = \"" + v + "\";";
      present.insert("mode");
      if (mode.const_string) {
        obligations.emplace("mode const", w);
        if (v != *mode.const_string) {
          expect(FindingKind::kConstMismatch, "mode");
        }
      }
      if (!mode.enum_strings.empty()) {
        obligations.emplace("mode enum", w);
        if (std::find(mode.enum_strings.begin(), mode.enum_strings.end(),
                      v) == mode.enum_strings.end()) {
          expect(FindingKind::kEnumViolation, "mode");
        }
      }
    }
    if (pick(4) != 0) {
      const uint64_t v = pick(5);
      body += " level = <" + std::to_string(v) + ">;";
      present.insert("level");
      if (level.const_cell) {
        obligations.emplace("level const", v);
        if (v != *level.const_cell) {
          expect(FindingKind::kConstMismatch, "level");
        }
      }
      if (!level.enum_cells.empty()) {
        obligations.emplace("level enum", v);
        if (std::find(level.enum_cells.begin(), level.enum_cells.end(), v) ==
            level.enum_cells.end()) {
          expect(FindingKind::kEnumViolation, "level");
        }
      }
    }
    if (pick(4) != 0) {
      std::vector<uint64_t> cells(1 + pick(3));
      for (uint64_t& c : cells) {
        c = pick(25);
        obligations.emplace("freq range", c);
        if ((freq.minimum && c < *freq.minimum) ||
            (freq.maximum && c > *freq.maximum)) {
          expect(FindingKind::kEnumViolation, "freq");
        }
      }
      body += " freq = " + cells_text(cells) + ";";
    }
    if (pick(4) != 0) {
      std::vector<uint64_t> cells(1 + pick(7));
      for (uint64_t& c : cells) c = pick(0x100);
      body += " reg = " + cells_text(cells) + ";";
      present.insert("reg");
      const uint64_t entries = cells.size() / stride;
      if (reg.min_items || reg.max_items) {
        obligations.emplace("reg items", entries);
        if ((reg.min_items && entries < *reg.min_items) ||
            (reg.max_items && entries > *reg.max_items)) {
          expect(FindingKind::kItemCountViolation, "reg");
        }
      }
      if (s.check_reg_shape) {
        obligations.emplace("reg shape", cells.size());
        if (cells.size() % stride != 0) {
          expect(FindingKind::kRegShapeViolation, "reg");
        }
      }
    }
    if (pick(4) == 0) {
      body += " rogue = <1>;";
      if (!s.additional_properties) {
        expect(FindingKind::kUnknownProperty, "rogue");
      }
    }
    const uint32_t subs = pick(4);
    for (uint32_t c = 0; c < subs; ++c) {
      body += " sub@" + std::to_string(c) + " { };";
    }
    obligations.emplace("children", subs);
    if ((children.min_count && subs < *children.min_count) ||
        (children.max_count && subs > *children.max_count)) {
      expect(FindingKind::kChildRuleViolation, "");
    }
    for (const std::string& req : s.required) {
      obligations.emplace("required " + req, present.count(req));
      if (present.count(req) == 0) {
        expect(FindingKind::kMissingRequired, req);
      }
    }
    for (uint32_t c = 0; c < copies; ++c) {
      const std::string name = "dev@" + std::to_string(n * copies + c);
      for (const auto& [kind, property] : faults) {
        board.expected.emplace_back(static_cast<int>(kind), "/" + name,
                                    property);
      }
      board.dts += "    " + name + " {" + body + " };\n";
    }
  }
  board.obligations = obligations.size();
  board.dts += "};\n";
  std::sort(board.expected.begin(), board.expected.end());
  return board;
}

// Guards the generator: across the seeds every fault kind fires, so the
// equivalence below covers each encoding.
TEST(RandomSchema, SeedsProduceEveryFaultKind) {
  std::set<int> kinds;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    for (const FindingKey& k : random_board(seed).expected) {
      kinds.insert(std::get<0>(k));
    }
  }
  for (FindingKind kind :
       {FindingKind::kMissingRequired, FindingKind::kConstMismatch,
        FindingKind::kEnumViolation, FindingKind::kItemCountViolation,
        FindingKind::kRegShapeViolation, FindingKind::kChildRuleViolation,
        FindingKind::kUnknownProperty}) {
    EXPECT_EQ(kinds.count(static_cast<int>(kind)), 1u)
        << "no seed produces finding kind " << static_cast<int>(kind);
  }
}

class RandomSchemaTest : public ::testing::TestWithParam<SchemaCase> {};

TEST_P(RandomSchemaTest, FindingsMatchTheDirectOracle) {
  const RandomBoard board = random_board(GetParam().seed);
  auto tree = parse_ok(board.dts);
  ASSERT_NE(tree, nullptr);
  SyntacticChecker checker(board.schemas, GetParam().backend);
  const Findings found = checker.check(*tree);
  EXPECT_EQ(sorted_keys(found), board.expected) << board.dts << render(found);
  EXPECT_GT(checker.solver_checks(), 0u);
}

// Every drawn node four times over: the findings still match the oracle
// instance by instance, while the checker decides each distinct
// (constraint, value) obligation once, however many instances pose it.
TEST_P(RandomSchemaTest, RepeatedValuesDecideEachObligationOnce) {
  const RandomBoard board = random_board(GetParam().seed, 4);
  auto tree = parse_ok(board.dts);
  ASSERT_NE(tree, nullptr);
  SyntacticChecker checker(board.schemas, GetParam().backend);
  const Findings found = checker.check(*tree);
  EXPECT_EQ(sorted_keys(found), board.expected) << board.dts << render(found);
  EXPECT_GT(planner_calls(checker), 0u);
  EXPECT_LE(planner_calls(checker), board.obligations) << board.dts;
}

std::vector<SchemaCase> schema_cases() {
  std::vector<SchemaCase> cases;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({seed, smt::Backend::kBuiltin});
  }
  for (uint32_t seed = 101; seed <= 106; ++seed) {
    cases.push_back({seed, smt::Backend::kZ3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, RandomSchemaTest,
                         ::testing::ValuesIn(schema_cases()),
                         [](const ::testing::TestParamInfo<SchemaCase>& info) {
                           return std::string(
                                      smt::to_string(info.param.backend)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace llhsc::checkers
