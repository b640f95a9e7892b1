// dt-schema substrate: an in-memory model of DeviceTree binding schemas
// covering the constraint classes the paper uses (Listing 5 and §IV-B):
// const values, enums, required properties, item-count bounds on `reg`,
// type expectations, name patterns, and the derived reg-shape rule
// (#address-cells + #size-cells divides the reg cell count).
//
// Schemas are loaded from a YAML subset (yaml_lite.hpp) — a --schemas file
// or the builtin stream of the paper's running example
// (builtin_schemas.hpp) — or, in tests, built with SchemaBuilder. The constraint *encoding* into
// first-order logic lives in checkers/syntactic.hpp — this module is pure
// data + matching.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dts/tree.hpp"

namespace llhsc::schema {

enum class PropertyType : uint8_t {
  kAny,
  kString,
  kStringList,
  kCells,
  kBool,
  kBytes,
};

[[nodiscard]] std::string_view to_string(PropertyType t);

/// Constraints on one property within a binding.
struct PropertySchema {
  std::string name;
  PropertyType type = PropertyType::kAny;
  /// `const:` — exact required string value.
  std::optional<std::string> const_string;
  /// `const:` — exact required single-cell value.
  std::optional<uint64_t> const_cell;
  /// `enum:` — allowed string values (empty = unconstrained).
  std::vector<std::string> enum_strings;
  /// `enum:` — allowed single-cell values.
  std::vector<uint64_t> enum_cells;
  /// `minItems:` / `maxItems:` — bounds on the number of reg-style entries,
  /// i.e. cell count divided by the entry stride (see SyntacticChecker).
  std::optional<uint32_t> min_items;
  std::optional<uint32_t> max_items;
  /// `pattern:` — glob the string value must match.
  std::optional<std::string> pattern;
  /// `minimum:` / `maximum:` — numeric bounds every cell value must satisfy
  /// (dt-schema uses these for manufacturer-given ranges: clock frequencies,
  /// register windows — paper §II-A).
  std::optional<uint64_t> minimum;
  std::optional<uint64_t> maximum;
};

/// How a schema decides it applies to a node (dt-schema `select`).
struct Selector {
  /// Glob over the node name ("memory@*"). Empty = not name-selected.
  std::string node_name_pattern;
  /// Any of these strings appearing in the node's `compatible` list selects
  /// the schema. Empty = not compatible-selected.
  std::vector<std::string> compatibles;

  [[nodiscard]] bool matches(const dts::Node& node) const;
};

/// Constraints on child nodes of a binding ("a cpus node contains cpu@N
/// children and nothing else").
struct ChildRule {
  /// Glob the child's name must match to be governed by this rule.
  std::string name_pattern;
  /// Schema id the matching children must additionally satisfy ("" = none).
  std::string schema_id;
  std::optional<uint32_t> min_count;
  std::optional<uint32_t> max_count;
};

/// One binding schema (one dt-schema YAML document).
struct NodeSchema {
  std::string id;           // stable identifier, e.g. "memory" or "arm,cpu"
  std::string description;
  Selector select;
  std::vector<PropertySchema> properties;
  std::vector<std::string> required;
  std::vector<ChildRule> child_rules;
  /// When false, properties not listed in `properties` are violations
  /// (dt-schema additionalProperties: false).
  bool additional_properties = true;
  /// Check that the reg cell count is a positive multiple of the parent's
  /// (#address-cells + #size-cells) — the dt-schema structural rule from
  /// §I-A of the paper.
  bool check_reg_shape = true;

  [[nodiscard]] const PropertySchema* find_property(std::string_view name) const;
};

/// A collection of schemas with node matching.
class SchemaSet {
 public:
  void add(NodeSchema schema);
  [[nodiscard]] const std::vector<NodeSchema>& schemas() const { return schemas_; }
  [[nodiscard]] const NodeSchema* find(std::string_view id) const;

  /// All schemas whose selector matches the node (dt-schema applies every
  /// matching document).
  [[nodiscard]] std::vector<const NodeSchema*> match(const dts::Node& node) const;

  [[nodiscard]] size_t size() const { return schemas_.size(); }

 private:
  std::vector<NodeSchema> schemas_;
};

/// Fluent construction for tests; every shipped schema is YAML.
class SchemaBuilder {
 public:
  explicit SchemaBuilder(std::string id) { schema_.id = std::move(id); }

  SchemaBuilder& description(std::string d) {
    schema_.description = std::move(d);
    return *this;
  }
  SchemaBuilder& select_node_name(std::string pattern) {
    schema_.select.node_name_pattern = std::move(pattern);
    return *this;
  }
  SchemaBuilder& select_compatible(std::string compat) {
    schema_.select.compatibles.push_back(std::move(compat));
    return *this;
  }
  SchemaBuilder& property(PropertySchema p) {
    schema_.properties.push_back(std::move(p));
    return *this;
  }
  SchemaBuilder& require(std::string name) {
    schema_.required.push_back(std::move(name));
    return *this;
  }
  SchemaBuilder& child(ChildRule rule) {
    schema_.child_rules.push_back(std::move(rule));
    return *this;
  }
  SchemaBuilder& no_additional_properties() {
    schema_.additional_properties = false;
    return *this;
  }
  SchemaBuilder& no_reg_shape_check() {
    schema_.check_reg_shape = false;
    return *this;
  }
  [[nodiscard]] NodeSchema build() { return std::move(schema_); }

 private:
  NodeSchema schema_;
};

}  // namespace llhsc::schema
