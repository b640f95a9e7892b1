// Parser tests around the paper's running example (Listing 1 + Listing 2):
// a CustomSBC with one memory node (two 64-bit banks), a 2-core cluster
// included from "cpus.dtsi", and two UARTs.
#include "dts/parser.hpp"

#include <gtest/gtest.h>

namespace llhsc::dts {
namespace {

// Listing 1 reconstructed: the paper shows memory/cpus/uart top-level nodes
// with the cluster stored in cpus.dtsi.
constexpr const char* kMainDts = R"(
/dts-v1/;

/ {
    #address-cells = <2>;
    #size-cells = <2>;

    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;
    };

    /include/ "cpus.dtsi"

    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
    };

    uart1: uart@30000000 {
        compatible = "ns16550a";
        reg = <0x0 0x30000000 0x0 0x1000>;
    };
};
)";

// Listing 2 verbatim (modulo the OCR's cpu00/cpu01 for cpu@0/cpu@1).
constexpr const char* kCpusDtsi = R"(
cpus {
    #address-cells = <0x1>;
    #size-cells = <0x0>;

    cpu@0 {
        compatible = "arm,cortex-a53";
        device_type = "cpu";
        enable-method = "psci";
        reg = <0x0>;
    };

    cpu@1 {
        compatible = "arm,cortex-a53";
        device_type = "cpu";
        enable-method = "psci";
        reg = <0x1>;
    };
};
)";

std::unique_ptr<Tree> parse_ok(std::string_view src,
                               const SourceManager& sm = {}) {
  support::DiagnosticEngine de;
  auto tree = parse_dts(src, "test.dts", sm, de);
  EXPECT_FALSE(de.has_errors()) << de.render();
  EXPECT_NE(tree, nullptr);
  return tree;
}

TEST(Parser, EmptyRoot) {
  auto tree = parse_ok("/dts-v1/;\n/ { };\n");
  EXPECT_EQ(tree->root().children().size(), 0u);
}

TEST(Parser, RunningExampleStructure) {
  SourceManager sm;
  sm.register_file("cpus.dtsi", kCpusDtsi);
  auto tree = parse_ok(kMainDts, sm);

  EXPECT_EQ(tree->root().children().size(), 4u);
  const Node* memory = tree->find("/memory@40000000");
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ(memory->find_property("device_type")->as_string(), "memory");
  auto reg = memory->find_property("reg")->as_cells();
  ASSERT_TRUE(reg.has_value());
  ASSERT_EQ(reg->size(), 8u);
  EXPECT_EQ((*reg)[1], 0x40000000u);
  EXPECT_EQ((*reg)[3], 0x20000000u);
  EXPECT_EQ((*reg)[5], 0x60000000u);

  const Node* cpus = tree->find("/cpus");
  ASSERT_NE(cpus, nullptr);
  EXPECT_EQ(cpus->children().size(), 2u);
  EXPECT_EQ(cpus->address_cells_or_default(), 1u);
  EXPECT_EQ(cpus->size_cells_or_default(), 0u);
  const Node* cpu0 = tree->find("/cpus/cpu@0");
  ASSERT_NE(cpu0, nullptr);
  EXPECT_EQ(cpu0->find_property("compatible")->as_string(), "arm,cortex-a53");
  EXPECT_EQ(cpu0->find_property("reg")->as_u32(), 0u);
  EXPECT_EQ(tree->find("/cpus/cpu@1")->find_property("reg")->as_u32(), 1u);
}

TEST(Parser, MissingIncludeIsReported) {
  support::DiagnosticEngine de;
  SourceManager sm;  // cpus.dtsi not registered
  auto tree = parse_dts(kMainDts, "test.dts", sm, de);
  EXPECT_TRUE(de.contains_code("dts-include"));
  // The rest of the tree still parses.
  ASSERT_NE(tree, nullptr);
  EXPECT_NE(tree->find("/memory@40000000"), nullptr);
  EXPECT_EQ(tree->find("/cpus"), nullptr);
}

TEST(Parser, IncludeCycleIsCaught) {
  SourceManager sm;
  sm.register_file("a.dtsi", "/include/ \"b.dtsi\"\n");
  sm.register_file("b.dtsi", "/include/ \"a.dtsi\"\n");
  support::DiagnosticEngine de;
  parse_dts("/include/ \"a.dtsi\"\n/ { };", "top.dts", sm, de);
  EXPECT_TRUE(de.contains_code("dts-include"));
}

TEST(Parser, BooleanProperty) {
  auto tree = parse_ok("/ { chosen { interrupts-extended-enable; }; };");
  const Node* chosen = tree->find("/chosen");
  ASSERT_NE(chosen, nullptr);
  const Property* p = chosen->find_property("interrupts-extended-enable");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->is_boolean());
}

TEST(Parser, StringListProperty) {
  auto tree = parse_ok(
      R"(/ { node { compatible = "vendor,specific", "generic"; }; };)");
  auto list = tree->find("/node")->find_property("compatible")->as_string_list();
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(*list, (std::vector<std::string>{"vendor,specific", "generic"}));
}

TEST(Parser, ByteString) {
  auto tree = parse_ok("/ { n { mac = [de ad be ef 00 01]; }; };");
  const Property* p = tree->find("/n")->find_property("mac");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->chunks.size(), 1u);
  EXPECT_EQ(p->chunks[0].kind, ChunkKind::kBytes);
  EXPECT_EQ(p->chunks[0].bytes,
            (std::vector<uint8_t>{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}));
}

TEST(Parser, MixedValueChunks) {
  auto tree = parse_ok(
      R"(/ { n { p = <1 2>, "str", [aa]; }; };)");
  const Property* p = tree->find("/n")->find_property("p");
  ASSERT_EQ(p->chunks.size(), 3u);
  EXPECT_EQ(p->chunks[0].kind, ChunkKind::kCells);
  EXPECT_EQ(p->chunks[1].kind, ChunkKind::kString);
  EXPECT_EQ(p->chunks[2].kind, ChunkKind::kBytes);
}

TEST(Parser, CellExpressions) {
  auto tree = parse_ok("/ { n { p = <(1 + 2) ((3 * 4) - 2) (1 << 8)>; }; };");
  auto cells = tree->find("/n")->find_property("p")->as_cells();
  ASSERT_TRUE(cells.has_value());
  EXPECT_EQ(*cells, (std::vector<uint64_t>{3, 10, 256}));
}

TEST(Parser, DuplicateNodesMerge) {
  auto tree = parse_ok(R"(
/ {
    n { a = <1>; b = <2>; };
};
/ {
    n { b = <3>; c = <4>; };
};
)");
  const Node* n = tree->find("/n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->find_property("a")->as_u32(), 1u);
  EXPECT_EQ(n->find_property("b")->as_u32(), 3u) << "later definition wins";
  EXPECT_EQ(n->find_property("c")->as_u32(), 4u);
}

TEST(Parser, LabelExtension) {
  auto tree = parse_ok(R"(
/ {
    u0: uart@1000 { status = "disabled"; };
};
&u0 {
    status = "okay";
    extra = <1>;
};
)");
  const Node* uart = tree->find("/uart@1000");
  ASSERT_NE(uart, nullptr);
  EXPECT_EQ(uart->find_property("status")->as_string(), "okay");
  EXPECT_EQ(uart->find_property("extra")->as_u32(), 1u);
}

TEST(Parser, PhandleReferenceResolution) {
  auto tree = parse_ok(R"(
/ {
    intc: interrupt-controller@1000 { };
    dev { interrupt-parent = <&intc>; };
};
)");
  const Node* intc = tree->find("/interrupt-controller@1000");
  ASSERT_NE(intc, nullptr);
  auto phandle = intc->find_property("phandle");
  ASSERT_NE(phandle, nullptr) << "referenced node must receive a phandle";
  auto parent = tree->find("/dev")->find_property("interrupt-parent")->as_u32();
  EXPECT_EQ(parent, phandle->as_u32());
}

TEST(Parser, UnresolvedReferenceIsError) {
  support::DiagnosticEngine de;
  auto tree =
      parse_dts("/ { dev { x = <&nothere>; }; };", "t.dts", de);
  (void)tree;
  EXPECT_TRUE(de.contains_code("dts-unresolved-ref"));
}

TEST(Parser, DeleteNodeAndProperty) {
  auto tree = parse_ok(R"(
/ {
    n { a = <1>; b = <2>; };
};
/ {
    n { /delete-property/ a; };
    /delete-node/ gone;
};
)");
  // /delete-node/ of a non-existent node warns but does not error.
  const Node* n = tree->find("/n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->find_property("a"), nullptr);
  EXPECT_NE(n->find_property("b"), nullptr);
}

TEST(Parser, MemReserve) {
  auto tree = parse_ok("/memreserve/ 0x10000000 0x4000;\n/ { };");
  ASSERT_EQ(tree->memreserves().size(), 1u);
  EXPECT_EQ(tree->memreserves()[0].address, 0x10000000u);
  EXPECT_EQ(tree->memreserves()[0].size, 0x4000u);
}

TEST(Parser, ErrorRecoveryProducesPartialTree) {
  support::DiagnosticEngine de;
  auto tree = parse_dts(R"(
/ {
    good { a = <1>; };
    bad { b = ; };
    alsogood { c = <2>; };
};
)",
                        "t.dts", de);
  EXPECT_TRUE(de.has_errors());
  ASSERT_NE(tree, nullptr);
  EXPECT_NE(tree->find("/good"), nullptr);
  EXPECT_NE(tree->find("/alsogood"), nullptr);
}

TEST(Parser, SixtyFourBitCellValues) {
  // Cell literals over 32 bits warn (dtc truncates with a warning) but the
  // value survives so the semantic layer can flag the truncation precisely.
  support::DiagnosticEngine de;
  auto tree = parse_dts("/ { n { big = <0x100000000>; }; };", "t.dts", de);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(de.error_count(), 0u) << de.render();
  EXPECT_TRUE(de.contains_code("dts-cell-overflow"));
  auto cells = tree->find("/n")->find_property("big")->as_cells();
  EXPECT_EQ((*cells)[0], 0x100000000u);
}

TEST(Parser, BitsDirective) {
  auto tree = parse_ok(R"(
/ { n {
    bytes8 = /bits/ 8 <0x12 0x34>;
    halves = /bits/ 16 <0x1234 0xabcd>;
    full64 = /bits/ 64 <0x123456789abcdef0>;
    normal = <0x1>;
}; };
)");
  const Node* n = tree->find("/n");
  const Property* b8 = n->find_property("bytes8");
  ASSERT_EQ(b8->chunks.size(), 1u);
  EXPECT_EQ(b8->chunks[0].element_bits, 8);
  EXPECT_EQ(*b8->as_cells(), (std::vector<uint64_t>{0x12, 0x34}));
  EXPECT_EQ(n->find_property("halves")->chunks[0].element_bits, 16);
  EXPECT_EQ(n->find_property("full64")->chunks[0].element_bits, 64);
  EXPECT_EQ((*n->find_property("full64")->as_cells())[0],
            0x123456789abcdef0ull);
  EXPECT_EQ(n->find_property("normal")->chunks[0].element_bits, 32);
}

TEST(Parser, BitsValueRangeChecked) {
  support::DiagnosticEngine de;
  parse_dts("/ { n { v = /bits/ 8 <0x1ff>; }; };", "t.dts", de);
  EXPECT_TRUE(de.has_errors());
}

TEST(Parser, BitsBadWidthRejected) {
  support::DiagnosticEngine de;
  parse_dts("/ { n { v = /bits/ 12 <0x1>; }; };", "t.dts", de);
  EXPECT_TRUE(de.contains_code("dts-parse"));
}

TEST(Parser, BitsRejectsReferences) {
  support::DiagnosticEngine de;
  parse_dts("/ { l: a { }; n { v = /bits/ 16 <&l>; }; };", "t.dts", de);
  EXPECT_TRUE(de.has_errors());
}

TEST(Parser, DeepNesting) {
  std::string src = "/ { a { b { c { d { e { leaf = <7>; }; }; }; }; }; };";
  auto tree = parse_ok(src);
  const Node* leaf_parent = tree->find("/a/b/c/d/e");
  ASSERT_NE(leaf_parent, nullptr);
  EXPECT_EQ(leaf_parent->find_property("leaf")->as_u32(), 7u);
}

// Hostile nesting — tens of thousands of node levels, or of parentheses
// or unary operators in one cell expression — must end in one located
// dts-parse error, not a stack overflow. Parsing resumes after the
// offending body or parenthesis, so the rest of the file still parses.
std::string nested_nodes(int depth) {
  std::string src = "/ {";
  for (int i = 0; i < depth; ++i) src += " a {";
  for (int i = 0; i < depth; ++i) src += " };";
  return src + " after { ok = <1>; }; };";
}

TEST(ParserNesting, DeepNodesAreOneLocatedError) {
  support::DiagnosticEngine de;
  auto tree = parse_dts(nested_nodes(20000), "deep.dts", de);
  ASSERT_EQ(de.error_count(), 1u) << de.render();
  const support::Diagnostic& d = de.diagnostics().front();
  EXPECT_EQ(d.code, "dts-parse");
  EXPECT_NE(d.message.find("nests deeper than"), std::string::npos);
  EXPECT_TRUE(d.location.valid());
  ASSERT_NE(tree, nullptr);
  ASSERT_NE(tree->find("/after"), nullptr);
  EXPECT_EQ(tree->find("/after")->find_property("ok")->as_u32(), 1u);
}

TEST(ParserNesting, DeepExpressionsAreOneLocatedError) {
  for (const auto& [open, close] :
       {std::pair<std::string, std::string>{"(", ")"}, {"(~", ")"},
        {"~", ""}, {"(-", ")"}}) {
    std::string expr;
    for (int i = 0; i < 100000; ++i) expr += open;
    expr += "1";
    for (int i = 0; i < 100000; ++i) expr += close;
    if (close.empty()) expr = "(" + expr + ")";
    support::DiagnosticEngine de;
    auto tree = parse_dts("/ { n { v = <" + expr + " 2>; w = <3>; }; };",
                          "deep.dts", de);
    ASSERT_EQ(de.error_count(), 1u) << open << ": " << de.render();
    EXPECT_EQ(de.diagnostics().front().code, "dts-parse");
    EXPECT_TRUE(de.diagnostics().front().location.valid());
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->find("/n")->find_property("w")->as_u32(), 3u) << open;
  }
}

TEST(ParserNesting, RealisticDepthsParseCleanly) {
  auto tree = parse_ok(nested_nodes(200));
  EXPECT_NE(tree->find("/after"), nullptr);
  std::string expr = "1";
  for (int i = 0; i < 100; ++i) expr = "(" + expr + " + 1)";
  auto cells = parse_ok("/ { n { v = <" + expr + ">; }; };");
  EXPECT_EQ(cells->find("/n")->find_property("v")->as_u32(), 101u);
}

TEST(Parser, UnitAddressFuzzyLookup) {
  SourceManager sm;
  sm.register_file("cpus.dtsi", kCpusDtsi);
  auto tree = parse_ok(kMainDts, sm);
  // Lookup by base name when unambiguous.
  EXPECT_NE(tree->find("/memory"), nullptr);
  // "uart" is ambiguous (two nodes) -> nullptr.
  EXPECT_EQ(tree->find("/uart"), nullptr);
}

}  // namespace
}  // namespace llhsc::dts
