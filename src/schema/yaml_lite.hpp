// A small YAML-subset parser, sufficient for dt-schema-style binding files
// (the paper's Listing 5). Supported: nested block maps, block sequences of
// scalars and of maps ("- key: value" openers), quoted and plain scalars,
// '#' comments, and multi-document streams separated by "---".
// Not supported (by design): anchors, aliases, flow collections, multi-line
// scalars, tags. Blocks nest at most dts::kMaxNesting (256) levels deep, the
// DTS parser's limit; a deeper block is one located [yaml-parse] error.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "schema/schema.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::schema::yaml {

/// Parsed YAML value. A node is exactly one of scalar / map / sequence.
struct Value {
  enum class Kind : uint8_t { kScalar, kMap, kSeq };
  Kind kind = Kind::kScalar;
  std::string scalar;
  std::vector<std::pair<std::string, Value>> map;
  std::vector<Value> seq;

  [[nodiscard]] bool is_scalar() const { return kind == Kind::kScalar; }
  [[nodiscard]] bool is_map() const { return kind == Kind::kMap; }
  [[nodiscard]] bool is_seq() const { return kind == Kind::kSeq; }

  /// Map lookup; nullptr when absent or not a map.
  [[nodiscard]] const Value* get(std::string_view key) const;
  /// Scalar accessors with shape checking.
  [[nodiscard]] std::optional<std::string> as_string() const;
  [[nodiscard]] std::optional<uint64_t> as_integer() const;
  [[nodiscard]] std::optional<bool> as_bool() const;
};

/// Parses one document. Returns nullopt on structural errors (reported via
/// diags, located at `file`, with `text` starting at line `first_line`).
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         support::DiagnosticEngine& diags,
                                         std::string_view file = "<yaml>",
                                         uint32_t first_line = 1);

/// Splits a "---"-separated stream and parses each document.
[[nodiscard]] std::vector<Value> parse_stream(std::string_view text,
                                              support::DiagnosticEngine& diags);

}  // namespace llhsc::schema::yaml

namespace llhsc::schema {

/// Loads one binding schema from its YAML form. Recognised keys:
///   $id, description, select.nodeName, select.compatible (scalar or list),
///   properties.<name>.{type,const,enum,minItems,maxItems,pattern},
///   required (list), additionalProperties (bool), regShapeCheck (bool),
///   children (list of {pattern, schema, minCount, maxCount}).
[[nodiscard]] std::optional<NodeSchema> load_schema_yaml(
    std::string_view text, support::DiagnosticEngine& diags,
    std::string_view file = "<yaml>", uint32_t first_line = 1);

/// Loads a whole "---"-separated schema stream into `out`. Returns the number
/// of schemas loaded. Parse errors are located at `file` (the --schemas
/// path), with lines counted from the start of the stream.
size_t load_schema_stream(std::string_view text, SchemaSet& out,
                          support::DiagnosticEngine& diags,
                          std::string_view file = "<yaml>");

}  // namespace llhsc::schema
