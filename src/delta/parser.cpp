// Parser for the delta-module language (paper Listing 4). Reuses the DTS
// lexer; DTS fragments inside adds/modifies bodies are parsed by the shared
// node-body parser so the two languages cannot drift apart.
#include "delta/delta.hpp"
#include "dts/lexer.hpp"
#include "dts/parser.hpp"

namespace llhsc::delta {

namespace {

class DeltaParser {
 public:
  DeltaParser(std::string_view source, std::string filename,
              support::DiagnosticEngine& diags)
      : lexer_(source, std::move(filename), diags), diags_(&diags) {}

  std::vector<DeltaModule> parse_all() {
    std::vector<DeltaModule> out;
    while (true) {
      dts::Token t = lexer_.next();
      if (t.kind == dts::TokenKind::kEnd) break;
      if (t.kind == dts::TokenKind::kIdent && t.text == "delta") {
        auto module = parse_delta(t.location);
        if (module) out.push_back(std::move(*module));
      } else {
        error("expected 'delta' at top level, found '" + t.text + "'",
              t.location);
        skip_to_next_delta();
      }
    }
    return out;
  }

 private:
  void error(const std::string& msg, const support::SourceLocation& loc) {
    diags_->error("delta-parse", msg, loc);
  }

  void skip_to_next_delta() {
    int depth = 0;
    while (true) {
      const dts::Token& t = lexer_.peek();
      if (t.kind == dts::TokenKind::kEnd) return;
      if (depth == 0 && t.kind == dts::TokenKind::kIdent && t.text == "delta") {
        return;
      }
      if (t.kind == dts::TokenKind::kLBrace) ++depth;
      if (t.kind == dts::TokenKind::kRBrace) depth = depth > 0 ? depth - 1 : 0;
      lexer_.next();
    }
  }

  std::optional<DeltaModule> parse_delta(support::SourceLocation loc) {
    DeltaModule module;
    module.location = loc;
    dts::Token name = lexer_.next();
    if (name.kind != dts::TokenKind::kIdent) {
      error("expected delta name", name.location);
      skip_to_next_delta();
      return std::nullopt;
    }
    module.name = name.text;

    // Optional clauses in either order: after ..., when ...
    while (true) {
      const dts::Token& t = lexer_.peek();
      if (t.kind == dts::TokenKind::kIdent && t.text == "after") {
        lexer_.next();
        while (true) {
          dts::Token dep = lexer_.next();
          if (dep.kind != dts::TokenKind::kIdent) {
            error("expected delta name after 'after'", dep.location);
            break;
          }
          module.after.push_back(dep.text.str());
          if (lexer_.peek().kind == dts::TokenKind::kComma) {
            lexer_.next();
            continue;
          }
          break;
        }
      } else if (t.kind == dts::TokenKind::kIdent && t.text == "when") {
        lexer_.next();
        module.when = parse_when_or();
        if (when_too_deep_) {
          when_too_deep_ = false;
          skip_to_next_delta();
          return std::nullopt;
        }
      } else {
        break;
      }
    }

    dts::Token open = lexer_.next();
    if (open.kind != dts::TokenKind::kLBrace) {
      error("expected '{' to open delta body", open.location);
      skip_to_next_delta();
      return std::nullopt;
    }

    while (true) {
      dts::Token t = lexer_.next();
      if (t.kind == dts::TokenKind::kRBrace) break;
      if (t.kind == dts::TokenKind::kEnd) {
        error("unexpected end of file inside delta '" + module.name + "'",
              t.location);
        return module;
      }
      if (t.kind != dts::TokenKind::kIdent) {
        error("expected operation keyword, found '" + t.text + "'", t.location);
        skip_to_next_delta();
        return module;
      }
      if (t.text == "adds") {
        // Optional "binding" keyword (paper syntax).
        if (lexer_.peek().kind == dts::TokenKind::kIdent &&
            lexer_.peek().text == "binding") {
          lexer_.next();
        }
        parse_fragment_op(module, OpKind::kAdds, t.location);
      } else if (t.text == "modifies") {
        parse_fragment_op(module, OpKind::kModifies, t.location);
      } else if (t.text == "removes") {
        parse_removes(module, t.location);
      } else {
        error("unknown operation '" + t.text + "'", t.location);
        skip_to_next_delta();
        return module;
      }
    }
    return module;
  }

  // target := '/' | path. Paths arrive as a mix of tokens because the DTS
  // lexer folds "/name/" into a directive token: "/soc/uart@1000" lexes as
  // Directive("soc") + Ident("uart@1000"). Assemble every path-shaped token
  // until the operation body ('{') or terminator (';') begins.
  std::optional<std::string> parse_target() {
    std::string target;
    bool any = false;
    // `expect_segment` gates ident consumption: an ident only joins the path
    // when it opens it or follows a '/', so "removes property <target>
    // <name>" leaves <name> for the caller.
    bool expect_segment = true;
    while (true) {
      const dts::Token& t = lexer_.peek();
      if (t.kind == dts::TokenKind::kSlash) {
        lexer_.next();
        if (target.empty() || target.back() != '/') target += '/';
        expect_segment = true;
      } else if (t.kind == dts::TokenKind::kDirective) {
        support::Atom text = lexer_.next().text;
        if (target.empty() || target.back() != '/') target += '/';
        target += text;
        target += '/';
        expect_segment = true;
      } else if (expect_segment && (t.kind == dts::TokenKind::kIdent ||
                                    t.kind == dts::TokenKind::kInt)) {
        target += lexer_.next().text;
        expect_segment = false;
      } else {
        break;
      }
      any = true;
    }
    if (!any) {
      error("expected operation target (node name or path)",
            lexer_.peek().location);
      return std::nullopt;
    }
    // Normalise a trailing '/' from the directive form ("/soc/" + end).
    if (target.size() > 1 && target.back() == '/') target.pop_back();
    return target;
  }

  void parse_fragment_op(DeltaModule& module, OpKind kind,
                         support::SourceLocation loc) {
    auto target = parse_target();
    if (!target) {
      skip_to_next_delta();
      return;
    }
    dts::Token open = lexer_.next();
    if (open.kind != dts::TokenKind::kLBrace) {
      error("expected '{' after operation target", open.location);
      skip_to_next_delta();
      return;
    }
    Operation op;
    op.kind = kind;
    op.target = *target;
    op.location = loc;
    op.body = std::make_unique<dts::Node>(*target);
    dts::parse_node_body_into(*op.body, lexer_, *diags_);
    module.operations.push_back(std::move(op));
    // Optional trailing ';' after the fragment (DTS habit).
    if (lexer_.peek().kind == dts::TokenKind::kSemi) lexer_.next();
  }

  void parse_removes(DeltaModule& module, support::SourceLocation loc) {
    Operation op;
    op.location = loc;
    if (lexer_.peek().kind == dts::TokenKind::kIdent &&
        lexer_.peek().text == "property") {
      lexer_.next();
      op.kind = OpKind::kRemovesProperty;
      auto target = parse_target();
      if (!target) return;
      op.target = *target;
      dts::Token prop = lexer_.next();
      if (prop.kind != dts::TokenKind::kIdent) {
        error("expected property name in 'removes property'", prop.location);
        return;
      }
      op.property_name = prop.text;
    } else {
      op.kind = OpKind::kRemovesNode;
      auto target = parse_target();
      if (!target) return;
      op.target = *target;
    }
    if (lexer_.peek().kind == dts::TokenKind::kSemi) lexer_.next();
    module.operations.push_back(std::move(op));
  }

  // when_expr := and_expr ('||' and_expr)*
  // '||' / '&&' arrive as two single-character kArith tokens; after consuming
  // the first, the second is required.
  WhenExpr parse_when_or() {
    WhenExpr lhs = parse_when_and();
    while (match_arith("|")) {
      if (!match_arith("|")) {
        error("expected '||' in when-expression", lexer_.peek().location);
      }
      WhenExpr rhs = parse_when_and();
      lhs = WhenExpr::disj(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  WhenExpr parse_when_and() {
    WhenExpr lhs = parse_when_unary();
    while (match_arith("&")) {
      if (!match_arith("&")) {
        error("expected '&&' in when-expression", lexer_.peek().location);
      }
      WhenExpr rhs = parse_when_unary();
      lhs = WhenExpr::conj(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  WhenExpr parse_when_unary() {
    // Every '!' and '(' recurses through here, so one bound covers both.
    // Past it, the levels unwind without reading on, and parse_delta skips
    // the module.
    if (when_depth_ == dts::kMaxNesting) {
      error("when-expression nests deeper than " +
                std::to_string(dts::kMaxNesting) + " levels",
            lexer_.peek().location);
      when_too_deep_ = true;
      return WhenExpr::always();
    }
    const dts::NestingGuard nest(when_depth_);
    const dts::Token& t = lexer_.peek();
    if (t.kind == dts::TokenKind::kArith && t.text == "!") {
      lexer_.next();
      return WhenExpr::negate(parse_when_unary());
    }
    if (t.kind == dts::TokenKind::kLParen) {
      lexer_.next();
      WhenExpr inner = parse_when_or();
      if (when_too_deep_) return inner;
      dts::Token close = lexer_.next();
      if (close.kind != dts::TokenKind::kRParen) {
        error("expected ')' in when-expression", close.location);
      }
      return inner;
    }
    if (t.kind == dts::TokenKind::kIdent || t.kind == dts::TokenKind::kInt) {
      dts::Token name = lexer_.next();
      return WhenExpr::feature(name.text.str());
    }
    dts::Token bad = lexer_.next();
    error("expected feature name in when-expression", bad.location);
    return WhenExpr::always();
  }

  /// Consumes one arith token with the given text if present.
  bool match_arith(const char* text) {
    const dts::Token& t = lexer_.peek();
    if (t.kind == dts::TokenKind::kArith && t.text == text) {
      lexer_.next();
      return true;
    }
    return false;
  }

  dts::Lexer lexer_;
  support::DiagnosticEngine* diags_;
  int when_depth_ = 0;  // current when-expression nesting (see kMaxNesting)
  bool when_too_deep_ = false;
};

}  // namespace

std::vector<DeltaModule> parse_deltas(std::string_view source,
                                      std::string filename,
                                      support::DiagnosticEngine& diags) {
  DeltaParser parser(source, std::move(filename), diags);
  return parser.parse_all();
}

}  // namespace llhsc::delta
