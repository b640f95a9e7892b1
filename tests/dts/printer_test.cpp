// Printer tests: structural round-trip through the parser is the key
// property — print(parse(x)) must parse to a tree equivalent to parse(x).
#include "dts/printer.hpp"

#include <gtest/gtest.h>

#include "dts/parser.hpp"

namespace llhsc::dts {
namespace {

bool trees_equal(const Node& a, const Node& b);

bool trees_equal(const Node& a, const Node& b) {
  if (a.name() != b.name()) return false;
  if (a.properties().size() != b.properties().size()) return false;
  for (size_t i = 0; i < a.properties().size(); ++i) {
    if (!(a.properties()[i] == b.properties()[i])) return false;
  }
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!trees_equal(*a.children()[i], *b.children()[i])) return false;
  }
  return true;
}

std::unique_ptr<Tree> parse_ok(std::string_view src) {
  support::DiagnosticEngine de;
  ParseOptions opts;
  opts.resolve_references = false;  // keep refs symbolic for comparison
  SourceManager sm;
  auto t = parse_dts(src, "t.dts", sm, de, opts);
  EXPECT_FALSE(de.has_errors()) << de.render();
  return t;
}

TEST(Printer, SimpleNode) {
  Tree t;
  Node& m = t.root().get_or_create_child("memory@40000000");
  m.set_property(Property::string("device_type", "memory"));
  m.set_property(Property::cells("reg", {0x40000000, 0x20000000}));
  std::string out = print_dts(t);
  EXPECT_NE(out.find("/dts-v1/;"), std::string::npos);
  EXPECT_NE(out.find("memory@40000000 {"), std::string::npos);
  EXPECT_NE(out.find("device_type = \"memory\";"), std::string::npos);
  EXPECT_NE(out.find("reg = <0x40000000 0x20000000>;"), std::string::npos);
}

TEST(Printer, BooleanProperty) {
  Tree t;
  t.root().get_or_create_child("n").set_property(Property::boolean("ranges"));
  EXPECT_NE(print_dts(t).find("ranges;"), std::string::npos);
}

TEST(Printer, LabelsAreEmitted) {
  Tree t;
  Node& u = t.root().get_or_create_child("uart@20000000");
  u.add_label("uart0");
  EXPECT_NE(print_dts(t).find("uart0: uart@20000000 {"), std::string::npos);
}

TEST(Printer, MemReserves) {
  Tree t;
  t.memreserves().push_back({0x10000000, 0x4000});
  std::string out = print_dts(t);
  EXPECT_NE(out.find("/memreserve/ 0x10000000 0x4000;"), std::string::npos);
}

TEST(Printer, StringEscapes) {
  Tree t;
  t.root().get_or_create_child("n").set_property(
      Property::string("s", "a\"b\\c"));
  std::string out = print_dts(t);
  EXPECT_NE(out.find(R"(s = "a\"b\\c";)"), std::string::npos);
}

TEST(Printer, RoundTripRunningExample) {
  const char* src = R"(
/dts-v1/;
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            enable-method = "psci";
            reg = <0x0>;
        };
        cpu@1 {
            compatible = "arm,cortex-a53";
            reg = <0x1>;
        };
    };
    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
        mac = [de ad];
        names = "a", "b";
        flag;
    };
};
)";
  auto original = parse_ok(src);
  ASSERT_NE(original, nullptr);
  std::string printed = print_dts(*original);
  auto reparsed = parse_ok(printed);
  ASSERT_NE(reparsed, nullptr) << printed;
  EXPECT_TRUE(trees_equal(original->root(), reparsed->root())) << printed;
}

TEST(Printer, RoundTripPreservesRefs) {
  const char* src = R"(
/ {
    intc: pic@1000 { };
    dev { link = <&intc 5>; alias = &intc; };
};
)";
  auto original = parse_ok(src);
  std::string printed = print_dts(*original);
  EXPECT_NE(printed.find("<&intc 0x5>"), std::string::npos) << printed;
  EXPECT_NE(printed.find("alias = &intc;"), std::string::npos);
  auto reparsed = parse_ok(printed);
  EXPECT_TRUE(trees_equal(original->root(), reparsed->root()));
}

TEST(Printer, BitsDirectiveRoundTrip) {
  auto original = parse_ok(R"(
/ { n {
    b = /bits/ 8 <0x12 0x34>;
    h = /bits/ 16 <0xabcd>;
    q = /bits/ 64 <0x1122334455667788>;
}; };
)");
  std::string printed = print_dts(*original);
  EXPECT_NE(printed.find("/bits/ 8 <0x12 0x34>"), std::string::npos) << printed;
  EXPECT_NE(printed.find("/bits/ 16 <0xabcd>"), std::string::npos);
  auto reparsed = parse_ok(printed);
  EXPECT_TRUE(trees_equal(original->root(), reparsed->root())) << printed;
}

}  // namespace
}  // namespace llhsc::dts
