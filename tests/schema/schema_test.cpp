#include "schema/schema.hpp"

#include <gtest/gtest.h>

#include "dts/parser.hpp"
#include "schema/builtin_schemas.hpp"

namespace llhsc::schema {
namespace {

dts::Node make_node(const std::string& name) { return dts::Node(name); }

TEST(Selector, NodeNamePattern) {
  Selector s;
  s.node_name_pattern = "memory@*";
  EXPECT_TRUE(s.matches(make_node("memory@40000000")));
  EXPECT_FALSE(s.matches(make_node("uart@20000000")));
  // Base-name match also accepted.
  Selector plain;
  plain.node_name_pattern = "cpus";
  EXPECT_TRUE(plain.matches(make_node("cpus")));
}

TEST(Selector, CompatibleMatch) {
  Selector s;
  s.compatibles = {"ns16550a"};
  dts::Node n("serial@1000");
  EXPECT_FALSE(s.matches(n));
  n.set_property(dts::Property::string("compatible", "ns16550a"));
  EXPECT_TRUE(s.matches(n));
  // String-list compatible.
  dts::Node m("serial@2000");
  m.set_property(
      dts::Property::strings("compatible", {"vendor,uart", "ns16550a"}));
  EXPECT_TRUE(s.matches(m));
  dts::Node o("serial@3000");
  o.set_property(dts::Property::string("compatible", "other"));
  EXPECT_FALSE(s.matches(o));
}

TEST(SchemaSet, MatchReturnsAllApplicable) {
  SchemaSet set = builtin_schemas();
  dts::Node uart("uart@20000000");
  uart.set_property(dts::Property::string("compatible", "ns16550a"));
  auto matches = set.match(uart);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0]->id, "uart");
}

TEST(SchemaSet, FindById) {
  SchemaSet set = builtin_schemas();
  EXPECT_NE(set.find("memory"), nullptr);
  EXPECT_NE(set.find("cpu"), nullptr);
  EXPECT_EQ(set.find("nope"), nullptr);
  EXPECT_EQ(set.size(), 5u);
}

TEST(Builtin, MemorySchemaShape) {
  const NodeSchema* m = builtin_schemas().find("memory");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->id, "memory");
  const PropertySchema* dt = m->find_property("device_type");
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->const_string, "memory");
  const PropertySchema* reg = m->find_property("reg");
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->min_items, 1u);
  EXPECT_EQ(reg->max_items, 1024u);
  EXPECT_EQ(m->required,
            (std::vector<std::string>{"device_type", "reg"}));
}

TEST(Builtin, SchemasMatchRunningExampleNodes) {
  SchemaSet set = builtin_schemas();
  support::DiagnosticEngine de;
  dts::SourceManager sm;
  auto tree = dts::parse_dts(R"(
/ {
    memory@40000000 { device_type = "memory"; reg = <0x0 0x1000>; };
    cpus { cpu@0 { compatible = "arm,cortex-a53"; reg = <0>; }; };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
    vEthernet { veth0@80000000 { compatible = "veth"; }; };
};
)",
                             "t.dts", sm, de);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(set.match(*tree->find("/memory@40000000")).size(), 1u);
  EXPECT_EQ(set.match(*tree->find("/cpus")).size(), 1u);
  EXPECT_EQ(set.match(*tree->find("/cpus/cpu@0")).size(), 1u);
  EXPECT_EQ(set.match(*tree->find("/uart@20000000")).size(), 1u);
  EXPECT_EQ(set.match(*tree->find("/vEthernet/veth0@80000000")).size(), 1u);
  EXPECT_TRUE(set.match(*tree->find("/vEthernet")).empty())
      << "the abstract container matches no binding";
}

TEST(Builder, FluentConstruction) {
  PropertySchema p;
  p.name = "clock-frequency";
  p.type = PropertyType::kCells;
  NodeSchema s = SchemaBuilder("test")
                     .description("desc")
                     .select_node_name("test@*")
                     .property(std::move(p))
                     .require("clock-frequency")
                     .no_additional_properties()
                     .no_reg_shape_check()
                     .build();
  EXPECT_EQ(s.id, "test");
  EXPECT_FALSE(s.additional_properties);
  EXPECT_FALSE(s.check_reg_shape);
  EXPECT_NE(s.find_property("clock-frequency"), nullptr);
  EXPECT_EQ(s.find_property("nope"), nullptr);
}

}  // namespace
}  // namespace llhsc::schema
