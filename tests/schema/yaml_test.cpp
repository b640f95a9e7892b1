#include "schema/yaml_lite.hpp"

#include <gtest/gtest.h>

namespace llhsc::schema {
namespace {

yaml::Value parse_ok(std::string_view text) {
  support::DiagnosticEngine de;
  auto v = yaml::parse(text, de);
  EXPECT_TRUE(v.has_value()) << de.render();
  EXPECT_FALSE(de.has_errors()) << de.render();
  return v.value_or(yaml::Value{});
}

TEST(YamlLite, ScalarMap) {
  auto v = parse_ok("a: 1\nb: hello\nc: \"quoted value\"\n");
  ASSERT_TRUE(v.is_map());
  EXPECT_EQ(v.get("a")->as_integer(), 1u);
  EXPECT_EQ(v.get("b")->as_string(), "hello");
  EXPECT_EQ(v.get("c")->as_string(), "quoted value");
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(YamlLite, NestedMaps) {
  auto v = parse_ok(R"(select:
  nodeName: "memory@*"
  deeper:
    key: value
)");
  const auto* sel = v.get("select");
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->get("nodeName")->as_string(), "memory@*");
  EXPECT_EQ(sel->get("deeper")->get("key")->as_string(), "value");
}

TEST(YamlLite, SequencesOfScalars) {
  auto v = parse_ok(R"(required:
  - device_type
  - reg
)");
  const auto* req = v.get("required");
  ASSERT_NE(req, nullptr);
  ASSERT_TRUE(req->is_seq());
  ASSERT_EQ(req->seq.size(), 2u);
  EXPECT_EQ(req->seq[0].as_string(), "device_type");
  EXPECT_EQ(req->seq[1].as_string(), "reg");
}

TEST(YamlLite, SequenceOfMaps) {
  auto v = parse_ok(R"(children:
  - pattern: "cpu@*"
    schema: cpu
    minCount: 1
  - pattern: "other@*"
)");
  const auto* c = v.get("children");
  ASSERT_TRUE(c != nullptr && c->is_seq());
  ASSERT_EQ(c->seq.size(), 2u);
  EXPECT_EQ(c->seq[0].get("pattern")->as_string(), "cpu@*");
  EXPECT_EQ(c->seq[0].get("minCount")->as_integer(), 1u);
  EXPECT_EQ(c->seq[1].get("pattern")->as_string(), "other@*");
}

TEST(YamlLite, CommentsAndBlanksIgnored) {
  auto v = parse_ok(R"(# leading comment
a: 1   # trailing comment

b: "has # inside quotes"
)");
  EXPECT_EQ(v.get("a")->as_integer(), 1u);
  EXPECT_EQ(v.get("b")->as_string(), "has # inside quotes");
}

TEST(YamlLite, Booleans) {
  auto v = parse_ok("t: true\nf: false\nn: 42\n");
  EXPECT_EQ(v.get("t")->as_bool(), true);
  EXPECT_EQ(v.get("f")->as_bool(), false);
  EXPECT_FALSE(v.get("n")->as_bool().has_value());
}

TEST(YamlLite, StreamSplitting) {
  support::DiagnosticEngine de;
  auto docs = yaml::parse_stream("a: 1\n---\nb: 2\n---\nc: 3\n", de);
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[1].get("b")->as_integer(), 2u);
}

TEST(YamlLite, BadIndentationReported) {
  support::DiagnosticEngine de;
  auto v = yaml::parse("a: 1\n   stray\n", de);
  EXPECT_TRUE(de.has_errors());
  (void)v;
}

TEST(SchemaLoader, Listing5Fragment) {
  // The paper's Listing 5, extended with the $id/select house-keeping the
  // loader needs.
  const char* text = R"($id: memory
select:
  nodeName: "memory@*"
properties:
  device_type:
    const: memory
  reg:
    minItems: 1
    maxItems: 1024
required:
  - device_type
  - reg
)";
  support::DiagnosticEngine de;
  auto schema = load_schema_yaml(text, de);
  ASSERT_TRUE(schema.has_value()) << de.render();
  EXPECT_EQ(schema->id, "memory");
  EXPECT_EQ(schema->select.node_name_pattern, "memory@*");
  const PropertySchema* dt = schema->find_property("device_type");
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->const_string, "memory");
  const PropertySchema* reg = schema->find_property("reg");
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->min_items, 1u);
  EXPECT_EQ(reg->max_items, 1024u);
  EXPECT_EQ(schema->required, (std::vector<std::string>{"device_type", "reg"}));
}

TEST(SchemaLoader, MissingIdIsError) {
  support::DiagnosticEngine de;
  EXPECT_FALSE(load_schema_yaml("description: no id\n", de).has_value());
  EXPECT_TRUE(de.contains_code("schema-load"));
}

TEST(SchemaLoader, EnumAndConstCells) {
  const char* text = R"($id: x
properties:
  id:
    enum:
      - 0
      - 1
  "#address-cells":
    const: 2
)";
  support::DiagnosticEngine de;
  auto schema = load_schema_yaml(text, de);
  ASSERT_TRUE(schema.has_value()) << de.render();
  EXPECT_EQ(schema->find_property("id")->enum_cells,
            (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(schema->find_property("#address-cells")->const_cell, 2u);
}

}  // namespace
}  // namespace llhsc::schema
