#include "schema/yaml_lite.hpp"

#include <algorithm>
#include <cassert>

#include "dts/lexer.hpp"
#include "support/strings.hpp"

namespace llhsc::schema::yaml {

namespace {

struct Line {
  int indent = 0;
  std::string content;  // comment-stripped, rtrimmed
  uint32_t number = 0;
};

// Strips '#' comments outside quotes.
std::string strip_comment(std::string_view s) {
  bool in_quotes = false;
  char quote = '\0';
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_quotes) {
      if (c == quote) in_quotes = false;
    } else if (c == '"' || c == '\'') {
      in_quotes = true;
      quote = c;
    } else if (c == '#') {
      return std::string(s.substr(0, i));
    }
  }
  return std::string(s);
}

std::vector<Line> split_lines(std::string_view text, uint32_t first_line) {
  std::vector<Line> out;
  uint32_t number = first_line - 1;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view raw = text.substr(
        start, nl == std::string_view::npos ? std::string_view::npos
                                            : nl - start);
    ++number;
    std::string stripped = strip_comment(raw);
    std::string_view trimmed = support::trim(stripped);
    if (!trimmed.empty()) {
      int indent = 0;
      for (char c : stripped) {
        if (c == ' ') {
          ++indent;
        } else {
          break;
        }
      }
      out.push_back(Line{indent, std::string(trimmed), number});
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return out;
}

std::string unquote(std::string_view s) {
  s = support::trim(s);
  if (s.size() >= 2 &&
      ((s.front() == '"' && s.back() == '"') ||
       (s.front() == '\'' && s.back() == '\''))) {
    return std::string(s.substr(1, s.size() - 2));
  }
  return std::string(s);
}

class Parser {
 public:
  Parser(std::vector<Line> lines, support::DiagnosticEngine& diags,
         std::string_view file)
      : lines_(std::move(lines)), diags_(&diags), file_(file) {}

  std::optional<Value> parse_document() {
    if (lines_.empty()) return Value{};  // empty scalar document
    Value v = parse_block(lines_[0].indent);
    if (pos_ < lines_.size()) {
      error("unexpected content (inconsistent indentation?)");
      return std::nullopt;
    }
    if (failed_) return std::nullopt;
    return v;
  }

 private:
  void error(const std::string& msg) {
    if (!failed_) {
      uint32_t line = pos_ < lines_.size() ? lines_[pos_].number : 0;
      diags_->error("yaml-parse", msg,
                    support::SourceLocation{file_, line, 0});
    }
    failed_ = true;
  }

  // Parses the block starting at the current position with the given indent.
  // Every nesting level enters here: past kMaxNesting levels, one error ends
  // the document, so recursion depth is bounded.
  Value parse_block(int indent) {
    if (pos_ >= lines_.size()) return Value{};
    if (depth_ == dts::kMaxNesting) {
      error("block nests deeper than " + std::to_string(dts::kMaxNesting) +
            " levels");
      return Value{};
    }
    const dts::NestingGuard nest(depth_);
    const Line& first = lines_[pos_];
    if (first.content.rfind("- ", 0) == 0 || first.content == "-") {
      return parse_seq(indent);
    }
    return parse_map(indent);
  }

  Value parse_map(int indent) {
    Value v;
    v.kind = Value::Kind::kMap;
    while (pos_ < lines_.size() && !failed_) {
      const Line& line = lines_[pos_];
      if (line.indent < indent) break;
      if (line.indent > indent) {
        error("unexpected indentation");
        break;
      }
      if (line.content.rfind("- ", 0) == 0 || line.content == "-") break;
      size_t colon = find_key_colon(line.content);
      if (colon == std::string::npos) {
        error("expected 'key: value' in map");
        break;
      }
      std::string key = unquote(line.content.substr(0, colon));
      std::string rest(support::trim(
          std::string_view(line.content).substr(colon + 1)));
      ++pos_;
      if (!rest.empty()) {
        Value scalar;
        scalar.scalar = unquote(rest);
        v.map.emplace_back(std::move(key), std::move(scalar));
      } else {
        // Nested block (or empty value).
        if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
          v.map.emplace_back(std::move(key), parse_block(lines_[pos_].indent));
        } else {
          v.map.emplace_back(std::move(key), Value{});
        }
      }
    }
    return v;
  }

  Value parse_seq(int indent) {
    Value v;
    v.kind = Value::Kind::kSeq;
    while (pos_ < lines_.size() && !failed_) {
      const Line& line = lines_[pos_];
      if (line.indent != indent ||
          !(line.content.rfind("- ", 0) == 0 || line.content == "-")) {
        if (line.indent >= indent && v.seq.empty()) {
          error("expected '- item' in sequence");
        }
        break;
      }
      std::string rest(
          support::trim(std::string_view(line.content).substr(1)));
      if (rest.empty()) {
        // "-" alone: nested block on following lines.
        ++pos_;
        if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
          v.seq.push_back(parse_block(lines_[pos_].indent));
        } else {
          v.seq.push_back(Value{});
        }
        continue;
      }
      size_t colon = find_key_colon(rest);
      if (colon != std::string::npos) {
        // "- key: value" opens an inline map item; continuation keys are
        // indented past the dash.
        int item_indent = line.indent + 2;
        // Rewrite the current line as the first key of the item and reparse.
        lines_[pos_].content = rest;
        lines_[pos_].indent = item_indent;
        v.seq.push_back(parse_map(item_indent));
      } else {
        Value scalar;
        scalar.scalar = unquote(rest);
        v.seq.push_back(std::move(scalar));
        ++pos_;
      }
    }
    return v;
  }

  // Finds the colon separating key from value, respecting quotes.
  static size_t find_key_colon(std::string_view s) {
    bool in_quotes = false;
    char quote = '\0';
    for (size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (in_quotes) {
        if (c == quote) in_quotes = false;
      } else if (c == '"' || c == '\'') {
        in_quotes = true;
        quote = c;
      } else if (c == ':' && (i + 1 == s.size() || s[i + 1] == ' ')) {
        return i;
      }
    }
    return std::string::npos;
  }

  std::vector<Line> lines_;
  support::DiagnosticEngine* diags_;
  support::Atom file_;
  size_t pos_ = 0;
  bool failed_ = false;
  /// Current block nesting (see dts::kMaxNesting).
  int depth_ = 0;
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  if (kind != Kind::kMap) return nullptr;
  for (const auto& [k, v] : map) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::string> Value::as_string() const {
  if (kind != Kind::kScalar) return std::nullopt;
  return scalar;
}

std::optional<uint64_t> Value::as_integer() const {
  if (kind != Kind::kScalar) return std::nullopt;
  return support::parse_integer(scalar);
}

std::optional<bool> Value::as_bool() const {
  if (kind != Kind::kScalar) return std::nullopt;
  if (scalar == "true" || scalar == "yes") return true;
  if (scalar == "false" || scalar == "no") return false;
  return std::nullopt;
}

std::optional<Value> parse(std::string_view text,
                           support::DiagnosticEngine& diags,
                           std::string_view file, uint32_t first_line) {
  Parser p(split_lines(text, first_line), diags, file);
  return p.parse_document();
}

std::vector<Value> parse_stream(std::string_view text,
                                support::DiagnosticEngine& diags) {
  std::vector<Value> docs;
  size_t start = 0;
  while (start <= text.size()) {
    size_t sep = text.find("\n---", start);
    std::string_view doc = text.substr(
        start, sep == std::string_view::npos ? std::string_view::npos
                                             : sep - start);
    // Drop a leading "---" line.
    std::string_view d = doc;
    if (support::starts_with(support::trim(d), "---")) {
      size_t nl = d.find('\n');
      d = nl == std::string_view::npos ? std::string_view{} : d.substr(nl + 1);
    }
    if (!support::trim(d).empty()) {
      if (auto v = parse(d, diags)) docs.push_back(std::move(*v));
    }
    if (sep == std::string_view::npos) break;
    start = sep + 1;  // position at the "---" line; loop strips it
  }
  return docs;
}

}  // namespace llhsc::schema::yaml

namespace llhsc::schema {

namespace {

PropertyType parse_type(const std::string& s) {
  if (s == "string") return PropertyType::kString;
  if (s == "string-list" || s == "stringlist") return PropertyType::kStringList;
  if (s == "cells" || s == "uint32-array") return PropertyType::kCells;
  if (s == "bool" || s == "flag") return PropertyType::kBool;
  if (s == "bytes" || s == "uint8-array") return PropertyType::kBytes;
  return PropertyType::kAny;
}

PropertySchema load_property(const std::string& name, const yaml::Value& v) {
  PropertySchema p;
  p.name = name;
  if (const auto* t = v.get("type")) {
    if (auto s = t->as_string()) p.type = parse_type(*s);
  }
  if (const auto* c = v.get("const")) {
    if (auto iv = c->as_integer()) {
      p.const_cell = *iv;
    } else if (auto s = c->as_string()) {
      p.const_string = *s;
    }
  }
  if (const auto* e = v.get("enum")) {
    if (e->is_seq()) {
      for (const auto& item : e->seq) {
        if (auto iv = item.as_integer()) {
          p.enum_cells.push_back(*iv);
        } else if (auto s = item.as_string()) {
          p.enum_strings.push_back(*s);
        }
      }
    }
  }
  if (const auto* m = v.get("minItems")) {
    if (auto iv = m->as_integer()) p.min_items = static_cast<uint32_t>(*iv);
  }
  if (const auto* m = v.get("maxItems")) {
    if (auto iv = m->as_integer()) p.max_items = static_cast<uint32_t>(*iv);
  }
  if (const auto* pat = v.get("pattern")) {
    if (auto s = pat->as_string()) p.pattern = *s;
  }
  if (const auto* m = v.get("minimum")) {
    if (auto iv = m->as_integer()) p.minimum = *iv;
  }
  if (const auto* m = v.get("maximum")) {
    if (auto iv = m->as_integer()) p.maximum = *iv;
  }
  return p;
}

}  // namespace

std::optional<NodeSchema> load_schema_yaml(std::string_view text,
                                           support::DiagnosticEngine& diags,
                                           std::string_view file,
                                           uint32_t first_line) {
  auto doc = yaml::parse(text, diags, file, first_line);
  const support::SourceLocation at{file, first_line, 0};
  if (!doc || !doc->is_map()) {
    diags.error("schema-load", "schema document is not a map", at);
    return std::nullopt;
  }
  NodeSchema schema;
  if (const auto* id = doc->get("$id")) {
    schema.id = id->as_string().value_or("");
  }
  if (schema.id.empty()) {
    diags.error("schema-load", "schema is missing $id", at);
    return std::nullopt;
  }
  if (const auto* d = doc->get("description")) {
    schema.description = d->as_string().value_or("");
  }
  if (const auto* sel = doc->get("select")) {
    if (const auto* nn = sel->get("nodeName")) {
      schema.select.node_name_pattern = nn->as_string().value_or("");
    }
    if (const auto* comp = sel->get("compatible")) {
      if (comp->is_seq()) {
        for (const auto& item : comp->seq) {
          if (auto s = item.as_string()) schema.select.compatibles.push_back(*s);
        }
      } else if (auto s = comp->as_string()) {
        schema.select.compatibles.push_back(*s);
      }
    }
  }
  if (const auto* props = doc->get("properties")) {
    if (props->is_map()) {
      for (const auto& [name, v] : props->map) {
        schema.properties.push_back(load_property(name, v));
      }
    }
  }
  if (const auto* req = doc->get("required")) {
    if (req->is_seq()) {
      for (const auto& item : req->seq) {
        if (auto s = item.as_string()) schema.required.push_back(*s);
      }
    }
  }
  if (const auto* ap = doc->get("additionalProperties")) {
    schema.additional_properties = ap->as_bool().value_or(true);
  }
  if (const auto* rs = doc->get("regShapeCheck")) {
    schema.check_reg_shape = rs->as_bool().value_or(true);
  }
  if (const auto* children = doc->get("children")) {
    if (children->is_seq()) {
      for (const auto& item : children->seq) {
        ChildRule rule;
        if (const auto* pat = item.get("pattern")) {
          rule.name_pattern = pat->as_string().value_or("");
        }
        if (const auto* sid = item.get("schema")) {
          rule.schema_id = sid->as_string().value_or("");
        }
        if (const auto* mc = item.get("minCount")) {
          if (auto iv = mc->as_integer()) {
            rule.min_count = static_cast<uint32_t>(*iv);
          }
        }
        if (const auto* mc = item.get("maxCount")) {
          if (auto iv = mc->as_integer()) {
            rule.max_count = static_cast<uint32_t>(*iv);
          }
        }
        schema.child_rules.push_back(std::move(rule));
      }
    }
  }
  return schema;
}

size_t load_schema_stream(std::string_view text, SchemaSet& out,
                          support::DiagnosticEngine& diags,
                          std::string_view file) {
  size_t loaded = 0;
  // Split on document markers and feed each to load_schema_yaml so that a
  // broken document does not take down its siblings.
  size_t start = 0;
  while (start <= text.size()) {
    size_t sep = text.find("\n---", start);
    std::string_view doc = text.substr(
        start, sep == std::string_view::npos ? std::string_view::npos
                                             : sep - start);
    std::string_view d = doc;
    if (support::starts_with(support::trim(d), "---")) {
      size_t nl = d.find('\n');
      d = nl == std::string_view::npos ? std::string_view{} : d.substr(nl + 1);
    }
    if (!support::trim(d).empty()) {
      // Lines are numbered from the start of the stream, not the document.
      const auto first_line = static_cast<uint32_t>(
          1 + std::count(text.data(), d.data(), '\n'));
      if (auto schema = load_schema_yaml(d, diags, file, first_line)) {
        out.add(std::move(*schema));
        ++loaded;
      }
    }
    if (sep == std::string_view::npos) break;
    start = sep + 1;
  }
  return loaded;
}

}  // namespace llhsc::schema
