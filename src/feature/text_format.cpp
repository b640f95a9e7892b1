#include "feature/text_format.hpp"

#include <sstream>

#include "dts/lexer.hpp"
#include "support/strings.hpp"

namespace llhsc::feature {

namespace {

class ModelParser {
 public:
  ModelParser(std::string_view text, std::string filename,
              support::DiagnosticEngine& diags)
      : lexer_(text, std::move(filename), diags), diags_(&diags) {}

  std::optional<FeatureModel> parse() {
    dts::Token kw = lexer_.next();
    if (kw.kind != dts::TokenKind::kIdent || kw.text != "model") {
      error("expected 'model <name> { ... }'", kw.location);
      return std::nullopt;
    }
    dts::Token name = lexer_.next();
    if (name.kind != dts::TokenKind::kIdent) {
      error("expected model name", name.location);
      return std::nullopt;
    }
    FeatureModel model;
    FeatureId root = model.add_root(name.text.str());
    // Optional root group kind: "model X group xor { ... }".
    if (lexer_.peek().kind == dts::TokenKind::kIdent &&
        lexer_.peek().text == "group") {
      lexer_.next();
      dts::Token kind = lexer_.next();
      if (kind.text == "and") {
        model.set_group(root, GroupKind::kAnd);
      } else if (kind.text == "or") {
        model.set_group(root, GroupKind::kOr);
      } else if (kind.text == "xor") {
        model.set_group(root, GroupKind::kXor);
      } else {
        error("group kind must be and/or/xor", kind.location);
        return std::nullopt;
      }
    }
    if (!expect(dts::TokenKind::kLBrace, "'{' after model name")) {
      return std::nullopt;
    }
    if (!parse_body(model, root)) return std::nullopt;
    // Resolve deferred cross-tree constraints now that every feature exists.
    for (const PendingConstraint& pc : pending_) {
      auto lhs = model.find(pc.lhs);
      auto rhs = model.find(pc.rhs);
      if (!lhs || !rhs) {
        error("constraint references unknown feature '" +
                  (lhs ? pc.rhs : pc.lhs) + "'",
              pc.location);
        return std::nullopt;
      }
      if (pc.requires_kind) {
        model.add_requires(*lhs, *rhs);
      } else {
        model.add_excludes(*lhs, *rhs);
      }
    }
    if (failed_) return std::nullopt;
    return model;
  }

 private:
  struct PendingConstraint {
    std::string lhs;
    std::string rhs;
    bool requires_kind = true;
    support::SourceLocation location;
  };

  void error(const std::string& msg, const support::SourceLocation& loc) {
    diags_->error("fm-parse", msg, loc);
    failed_ = true;
  }

  bool expect(dts::TokenKind kind, const char* what) {
    dts::Token t = lexer_.next();
    if (t.kind != kind) {
      error(std::string("expected ") + what, t.location);
      return false;
    }
    return true;
  }

  /// Parses the body between { } for `parent`'s children.
  bool parse_body(FeatureModel& model, FeatureId parent) {
    while (true) {
      dts::Token t = lexer_.next();
      if (t.kind == dts::TokenKind::kRBrace) return true;
      if (t.kind == dts::TokenKind::kEnd) {
        error("unexpected end of file inside model body", t.location);
        return false;
      }
      if (t.kind != dts::TokenKind::kIdent && t.kind != dts::TokenKind::kInt) {
        error("expected feature name or 'constraint', found '" + t.text + "'",
              t.location);
        return false;
      }
      if (t.text == "constraint") {
        if (!parse_constraint(t.location)) return false;
        continue;
      }
      if (!parse_feature(model, parent, t)) return false;
    }
  }

  /// Parses "[m..k]" after 'group'. The shared lexer folds "..2" into one
  /// identifier token, so accept both "m .. k" and the fused form.
  bool parse_cardinality(std::optional<std::pair<uint32_t, uint32_t>>& out) {
    lexer_.next();  // consume '['
    dts::Token lo = lexer_.next();
    dts::Token dots = lexer_.next();
    uint64_t hi_value = 0;
    bool have_hi = false;
    if (dots.kind == dts::TokenKind::kIdent &&
        dots.text.starts_with("..")) {
      if (dots.text.size() > 2) {
        auto v = support::parse_integer(
            std::string_view(dots.text).substr(2));
        if (v) {
          hi_value = *v;
          have_hi = true;
        }
      }
    } else {
      error("expected '..' in cardinality", dots.location);
      return false;
    }
    if (!have_hi) {
      dts::Token hi = lexer_.next();
      if (hi.kind != dts::TokenKind::kInt) {
        error("expected upper bound in cardinality", hi.location);
        return false;
      }
      hi_value = hi.value;
    }
    dts::Token close = lexer_.next();
    if (lo.kind != dts::TokenKind::kInt ||
        close.kind != dts::TokenKind::kRBracket || lo.value > hi_value) {
      error("expected cardinality of the form [m..k] with m <= k",
            lo.location);
      return false;
    }
    out = {static_cast<uint32_t>(lo.value), static_cast<uint32_t>(hi_value)};
    return true;
  }

  bool parse_feature(FeatureModel& model, FeatureId parent,
                     const dts::Token& name) {
    bool mandatory = false;
    bool abstract_feature = false;
    std::optional<GroupKind> group;
    std::optional<std::pair<uint32_t, uint32_t>> cardinality;
    while (lexer_.peek().kind == dts::TokenKind::kIdent) {
      support::Atom word = lexer_.peek().text;
      if (word == "mandatory") {
        lexer_.next();
        mandatory = true;
      } else if (word == "optional") {
        lexer_.next();
      } else if (word == "abstract") {
        lexer_.next();
        abstract_feature = true;
      } else if (word == "group") {
        lexer_.next();
        if (lexer_.peek().kind == dts::TokenKind::kLBracket) {
          // Cardinality: group [m..k]
          if (!parse_cardinality(cardinality)) return false;
        } else {
          dts::Token kind = lexer_.next();
          if (kind.text == "and") {
            group = GroupKind::kAnd;
          } else if (kind.text == "or") {
            group = GroupKind::kOr;
          } else if (kind.text == "xor") {
            group = GroupKind::kXor;
          } else {
            error("group kind must be and/or/xor or [m..k]", kind.location);
            return false;
          }
        }
      } else {
        error("unknown modifier '" + word + "'", lexer_.peek().location);
        return false;
      }
    }
    FeatureId id = model.add_feature(parent, name.text.str(), mandatory,
                                     abstract_feature);
    if (group) model.set_group(id, *group);
    if (cardinality) {
      model.set_group_cardinality(id, cardinality->first, cardinality->second);
    }
    dts::Token t = lexer_.next();
    if (t.kind == dts::TokenKind::kSemi) return true;
    if (t.kind == dts::TokenKind::kLBrace) {
      if (depth_ == dts::kMaxNesting) {
        error("feature '" + name.text + "' nests deeper than " +
                  std::to_string(dts::kMaxNesting) + " levels",
              name.location);
        return false;
      }
      const dts::NestingGuard nest(depth_);
      return parse_body(model, id);
    }
    error("expected ';' or '{' after feature declaration", t.location);
    return false;
  }

  bool parse_constraint(const support::SourceLocation& loc) {
    dts::Token lhs = lexer_.next();
    dts::Token kind = lexer_.next();
    dts::Token rhs = lexer_.next();
    if (lhs.kind != dts::TokenKind::kIdent ||
        rhs.kind != dts::TokenKind::kIdent ||
        (kind.text != "requires" && kind.text != "excludes")) {
      error("expected 'constraint A requires|excludes B;'", loc);
      return false;
    }
    if (!expect(dts::TokenKind::kSemi, "';' after constraint")) return false;
    pending_.push_back(
        {lhs.text.str(), rhs.text.str(), kind.text == "requires", loc});
    return true;
  }

  dts::Lexer lexer_;
  support::DiagnosticEngine* diags_;
  std::vector<PendingConstraint> pending_;
  bool failed_ = false;
  int depth_ = 0;  // feature-body nesting below the root (see kMaxNesting)
};

void print_feature(std::ostringstream& os, const FeatureModel& model,
                   FeatureId id, int depth) {
  const Feature& f = model.feature(id);
  std::string pad(static_cast<size_t>(depth) * 4, ' ');
  os << pad << f.name;
  if (f.mandatory && id != model.root()) os << " mandatory";
  if (f.abstract_feature) os << " abstract";
  if (!f.children.empty() && f.group == GroupKind::kCardinality) {
    os << " group [" << f.group_min << ".." << f.group_max << "]";
  } else if (!f.children.empty() && f.group != GroupKind::kAnd) {
    os << " group " << to_string(f.group);
  }
  if (f.children.empty()) {
    os << ";\n";
    return;
  }
  os << " {\n";
  for (FeatureId c : f.children) print_feature(os, model, c, depth + 1);
  os << pad << "}\n";
}

}  // namespace

std::optional<FeatureModel> parse_model(std::string_view text,
                                        std::string filename,
                                        support::DiagnosticEngine& diags) {
  ModelParser parser(text, std::move(filename), diags);
  return parser.parse();
}

std::string print_model(const FeatureModel& model) {
  std::ostringstream os;
  const Feature& root = model.feature(model.root());
  os << "model " << root.name;
  if (!root.children.empty() && root.group != GroupKind::kAnd) {
    os << " group " << to_string(root.group);
  }
  os << " {\n";
  for (FeatureId c : root.children) print_feature(os, model, c, 1);
  for (const CrossConstraint& cc : model.cross_constraints()) {
    os << "    constraint " << model.feature(cc.lhs).name << ' '
       << (cc.kind == CrossConstraint::Kind::kRequires ? "requires"
                                                       : "excludes")
       << ' ' << model.feature(cc.rhs).name << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace llhsc::feature
