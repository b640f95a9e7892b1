#include "dts/parser.hpp"

#include <cassert>
#include <fstream>
#include <sstream>

#include "support/strings.hpp"

namespace llhsc::dts {

void SourceManager::register_file(std::string name, std::string content) {
  files_[std::move(name)] = std::move(content);
}

std::optional<std::string> SourceManager::load(const std::string& name) const {
  auto found = [&](std::string content) -> std::optional<std::string> {
    if (observer_) observer_(name, content);
    return content;
  };
  auto it = files_.find(name);
  if (it != files_.end()) return found(it->second);
  if (!base_directory_.empty()) {
    std::ifstream in(base_directory_ + "/" + name, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      return found(buf.str());
    }
  }
  std::ifstream in(name, std::ios::binary);
  if (in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    return found(buf.str());
  }
  return std::nullopt;
}

namespace {

// Parses directly into the target tree: duplicate node definitions merge as
// they are encountered (dtc semantics), which also gives /delete-node/ and
// /delete-property/ their correct "applies to everything seen so far"
// behaviour.
class Parser {
 public:
  Parser(Lexer& lexer, support::DiagnosticEngine& diags)
      : lexer_(lexer), diags_(&diags) {}

  /// Entry point for embedded node-body fragments (delta modules).
  void parse_body(Node& node) { parse_node_body(node); }

  void parse_file(Tree& tree) {
    while (true) {
      Token t = lexer_.next();
      switch (t.kind) {
        case TokenKind::kEnd:
          return;
        case TokenKind::kDirective:
          handle_directive(tree, t);
          break;
        case TokenKind::kSlash: {
          // Root node definition: / { ... };
          expect(TokenKind::kLBrace, "'{' after '/'");
          if (!tree.root().location().valid()) {
            tree.root().set_location(t.location);
          }
          parse_node_body(tree.root());
          expect(TokenKind::kSemi, "';' after node");
          break;
        }
        case TokenKind::kLabel:
          // A label preceding '/' or '&ref' at the top level.
          pending_labels_.push_back(t.text);
          break;
        case TokenKind::kRef: {
          // &label { ... }; extends an existing node.
          Token open = lexer_.next();
          if (open.kind != TokenKind::kLBrace) {
            diags_->error("dts-parse", "expected '{' after top-level &" + t.text,
                          open.location);
            recover_to_semi();
            break;
          }
          Node* target = tree.find_label(t.text);
          if (target == nullptr) {
            diags_->error("dts-unresolved-ref",
                          "extension of unknown label &" + t.text, t.location);
            Node scratch("&" + t.text);
            parse_node_body(scratch);  // consume the body
          } else {
            for (support::Atom l : pending_labels_) target->add_label(l);
            parse_node_body(*target);
          }
          pending_labels_.clear();
          expect(TokenKind::kSemi, "';' after node");
          break;
        }
        case TokenKind::kIdent:
          diags_->error("dts-parse",
                        "unexpected top-level identifier '" + t.text +
                            "' (node definitions at the top level must be "
                            "under '/')",
                        t.location);
          recover_to_semi();
          break;
        default:
          diags_->error("dts-parse", "unexpected token '" + t.text + "'",
                        t.location);
          recover_to_semi();
          break;
      }
    }
  }

 private:
  void handle_directive(Tree& tree, const Token& t) {
    if (t.text == "dts-v1") {
      expect(TokenKind::kSemi, "';' after /dts-v1/");
    } else if (t.text == "memreserve") {
      Token a = lexer_.next();
      Token b = lexer_.next();
      if (a.kind != TokenKind::kInt || b.kind != TokenKind::kInt) {
        diags_->error("dts-parse", "/memreserve/ expects two integers",
                      t.location);
        recover_to_semi();
        return;
      }
      expect(TokenKind::kSemi, "';' after /memreserve/");
      tree.memreserves().push_back(MemReserve{a.value, b.value});
    } else {
      diags_->error("dts-parse", "unknown directive /" + t.text + "/",
                    t.location);
      recover_to_semi();
    }
  }

  void parse_node_body(Node& node) {
    // Past kMaxNesting: one error, and parsing resumes after the offending
    // body (in an expression, after the offending parenthesis).
    if (depth_ == kMaxNesting) {
      diags_->error("dts-parse",
                    "node '" + node.name() + "' nests deeper than " +
                        std::to_string(kMaxNesting) + " levels",
                    node.location());
      skip_nested(TokenKind::kLBrace, TokenKind::kRBrace);
      lexer_.next();  // the body's '}' (or the end of input)
      return;
    }
    const NestingGuard nest(depth_);
    std::vector<support::Atom> labels;
    while (true) {
      Token t = lexer_.next();
      switch (t.kind) {
        case TokenKind::kRBrace:
          return;
        case TokenKind::kEnd:
          diags_->error("dts-parse", "unexpected end of file inside node '" +
                                         node.name() + "'",
                        t.location);
          return;
        case TokenKind::kLabel:
          labels.push_back(t.text);
          break;
        case TokenKind::kDirective: {
          if (t.text == "delete-node") {
            Token name = lexer_.next();
            expect(TokenKind::kSemi, "';' after /delete-node/");
            if (!node.remove_child(name.text)) {
              diags_->warning("dts-delete",
                              "/delete-node/ target '" + name.text +
                                  "' not found",
                              name.location);
            }
          } else if (t.text == "delete-property") {
            Token name = lexer_.next();
            expect(TokenKind::kSemi, "';' after /delete-property/");
            if (!node.remove_property(name.text)) {
              diags_->warning("dts-delete",
                              "/delete-property/ target '" + name.text +
                                  "' not found",
                              name.location);
            }
          } else {
            diags_->error("dts-parse", "unexpected directive /" + t.text +
                                           "/ inside node body",
                          t.location);
            recover_to_semi();
          }
          break;
        }
        case TokenKind::kIdent:
        case TokenKind::kInt: {
          // Either a property or a child node; disambiguate on next token.
          // (kInt covers names like "0" that lex numerically.)
          support::Atom name = t.text;
          const Token& nxt = lexer_.peek();
          if (nxt.kind == TokenKind::kLBrace) {
            lexer_.next();  // consume {
            Node& child = node.get_or_create_child(name);
            if (!child.location().valid()) child.set_location(t.location);
            for (support::Atom l : labels) child.add_label(l);
            labels.clear();
            parse_node_body(child);
            expect(TokenKind::kSemi, "';' after node");
          } else {
            labels.clear();  // labels on properties are legal but unused here
            Property p = parse_property(name, t.location);
            node.set_property(std::move(p));
          }
          break;
        }
        default:
          diags_->error("dts-parse",
                        "unexpected token '" + t.text + "' in node body",
                        t.location);
          recover_to_semi();
          break;
      }
    }
  }

  Property parse_property(support::Atom name, support::SourceLocation loc) {
    Property p;
    p.name = name;
    p.location = loc;
    Token t = lexer_.next();
    if (t.kind == TokenKind::kSemi) return p;  // boolean property
    if (t.kind != TokenKind::kEquals) {
      diags_->error("dts-parse",
                    "expected '=' or ';' after property name '" + p.name + "'",
                    t.location);
      recover_to_semi();
      return p;
    }
    // value (',' value)* ';'
    while (true) {
      Token v = lexer_.next();
      uint8_t bits = 32;
      bool explicit_bits = false;
      if (v.kind == TokenKind::kDirective && v.text == "bits") {
        explicit_bits = true;
        // /bits/ N <...> — N in {8, 16, 32, 64}.
        Token width = lexer_.next();
        if (width.kind != TokenKind::kInt ||
            (width.value != 8 && width.value != 16 && width.value != 32 &&
             width.value != 64)) {
          diags_->error("dts-parse", "/bits/ expects 8, 16, 32 or 64",
                        width.location);
          recover_to_semi();
          return p;
        }
        bits = static_cast<uint8_t>(width.value);
        v = lexer_.next();
        if (v.kind != TokenKind::kLAngle) {
          diags_->error("dts-parse", "/bits/ must be followed by a cell list",
                        v.location);
          recover_to_semi();
          return p;
        }
      }
      switch (v.kind) {
        case TokenKind::kLAngle: {
          Chunk chunk = parse_cells();
          chunk.element_bits = bits;
          // Range-check literals against the element width. An explicit
          // /bits/ violation is a hard error; default-width overflow is a
          // warning (dtc semantics: it truncates), keeping the value so the
          // semantic layer can inspect it.
          if (bits < 64) {
            uint64_t max = (1ull << bits) - 1;
            for (const Cell& cell : chunk.cells) {
              if (!cell.is_ref && cell.value > max) {
                std::string msg = "value " + std::to_string(cell.value) +
                                  " does not fit in " +
                                  std::to_string(bits) + "-bit cells";
                if (explicit_bits) {
                  diags_->error("dts-parse", std::move(msg), v.location);
                } else {
                  diags_->warning("dts-cell-overflow", std::move(msg),
                                  v.location);
                }
              }
            }
          }
          if (bits != 32) {
            for (const Cell& cell : chunk.cells) {
              if (cell.is_ref) {
                diags_->error("dts-parse",
                              "references are only allowed in 32-bit cells",
                              v.location);
              }
            }
          }
          p.chunks.push_back(std::move(chunk));
          break;
        }
        case TokenKind::kString:
          p.chunks.push_back(Chunk::make_string(v.text));
          break;
        case TokenKind::kLBracket:
          p.chunks.push_back(parse_bytes());
          break;
        case TokenKind::kRef:
          p.chunks.push_back(Chunk::make_ref(v.text));
          break;
        default:
          diags_->error("dts-parse",
                        "unexpected token '" + v.text + "' in property value",
                        v.location);
          recover_to_semi();
          return p;
      }
      Token sep = lexer_.next();
      if (sep.kind == TokenKind::kSemi) return p;
      if (sep.kind != TokenKind::kComma) {
        diags_->error("dts-parse", "expected ',' or ';' in property value",
                      sep.location);
        recover_to_semi();
        return p;
      }
    }
  }

  Chunk parse_cells() {
    std::vector<Cell> cells;
    while (true) {
      Token t = lexer_.next();
      if (t.kind == TokenKind::kRAngle) break;
      if (t.kind == TokenKind::kEnd) {
        diags_->error("dts-parse", "unterminated cell list", t.location);
        break;
      }
      if (t.kind == TokenKind::kInt) {
        cells.push_back(Cell::literal(t.value));
      } else if (t.kind == TokenKind::kRef) {
        cells.push_back(Cell::reference(t.text));
      } else if (t.kind == TokenKind::kLParen) {
        cells.push_back(Cell::literal(parse_expression()));
      } else {
        diags_->error("dts-parse", "unexpected token '" + t.text +
                                       "' inside cell list",
                      t.location);
      }
    }
    return Chunk::make_cells(std::move(cells));
  }

  // Parses a parenthesised C-style integer expression after '(' has been
  // consumed; returns its value. Supports + - * / % << >> & | ^ ~ and nesting.
  uint64_t parse_expression() {
    uint64_t value = parse_expr_binary(0);
    Token close = lexer_.next();
    if (close.kind != TokenKind::kRParen) {
      diags_->error("dts-parse", "expected ')' in expression", close.location);
    }
    return value;
  }

  static int precedence(std::string_view op) {
    if (op == "*" || op == "/" || op == "%") return 5;
    if (op == "+" || op == "-") return 4;
    if (op == "<<" || op == ">>") return 3;
    if (op == "&") return 2;
    if (op == "^") return 1;
    if (op == "|") return 0;
    return -1;
  }

  uint64_t parse_expr_binary(int min_prec) {
    uint64_t lhs = parse_expr_unary();
    while (true) {
      const Token& t = lexer_.peek();
      std::string_view op;
      if (t.kind == TokenKind::kArith) {
        op = t.text;
      } else if (t.kind == TokenKind::kIdent &&
                 (t.text == "-" || t.text == "+")) {
        op = t.text;  // lexer folds bare +/- into idents
      } else if (t.kind == TokenKind::kSlash) {
        op = "/";
      } else {
        break;
      }
      int prec = precedence(op);
      if (prec < min_prec) break;
      lexer_.next();
      uint64_t rhs = parse_expr_binary(prec + 1);
      if (op == "*") lhs *= rhs;
      else if (op == "/") lhs = rhs == 0 ? 0 : lhs / rhs;
      else if (op == "%") lhs = rhs == 0 ? 0 : lhs % rhs;
      else if (op == "+") lhs += rhs;
      else if (op == "-") lhs -= rhs;
      else if (op == "<<") lhs <<= (rhs & 63);
      else if (op == ">>") lhs >>= (rhs & 63);
      else if (op == "&") lhs &= rhs;
      else if (op == "^") lhs ^= rhs;
      else if (op == "|") lhs |= rhs;
    }
    return lhs;
  }

  uint64_t parse_expr_unary() {
    if (depth_ == kMaxNesting) {
      diags_->error("dts-parse",
                    "expression nests deeper than " +
                        std::to_string(kMaxNesting) + " levels",
                    lexer_.peek().location);
      skip_nested(TokenKind::kLParen, TokenKind::kRParen);
      return 0;
    }
    const NestingGuard nest(depth_);
    Token t = lexer_.next();
    if (t.kind == TokenKind::kInt) return t.value;
    if (t.kind == TokenKind::kLParen) return parse_expression();
    if (t.kind == TokenKind::kArith && t.text == "~") return ~parse_expr_unary();
    if ((t.kind == TokenKind::kArith || t.kind == TokenKind::kIdent) &&
        t.text == "-") {
      return static_cast<uint64_t>(-static_cast<int64_t>(parse_expr_unary()));
    }
    // Negative literals may lex as one ident token starting with '-'.
    if (t.kind == TokenKind::kIdent && t.text.size() > 1 && t.text[0] == '-') {
      auto v = support::parse_integer(std::string_view(t.text).substr(1));
      if (v) return static_cast<uint64_t>(-static_cast<int64_t>(*v));
    }
    diags_->error("dts-parse", "expected integer in expression", t.location);
    return 0;
  }

  Chunk parse_bytes() {
    std::vector<uint8_t> bytes;
    while (true) {
      Token t = lexer_.next();
      if (t.kind == TokenKind::kRBracket) break;
      if (t.kind == TokenKind::kEnd) {
        diags_->error("dts-parse", "unterminated byte string", t.location);
        break;
      }
      // Hex pairs may lex as kInt ("00") or kIdent ("aa", "deadbeef").
      const support::Atom text = t.text;
      if (text.size() % 2 != 0) {
        diags_->error("dts-parse",
                      "byte string element '" + text + "' has odd length",
                      t.location);
        continue;
      }
      bool ok = true;
      for (size_t i = 0; i < text.size(); i += 2) {
        auto v = support::parse_integer("0x" + std::string(text.substr(i, 2)));
        if (!v) {
          ok = false;
          break;
        }
        bytes.push_back(static_cast<uint8_t>(*v));
      }
      if (!ok) {
        diags_->error("dts-parse", "invalid hex byte in '" + text + "'",
                      t.location);
      }
    }
    return Chunk::make_bytes(std::move(bytes));
  }

  void expect(TokenKind kind, const char* what) {
    Token t = lexer_.next();
    if (t.kind != kind) {
      diags_->error("dts-parse", std::string("expected ") + what, t.location);
    }
  }

  /// Counts one level of node or expression nesting for its lifetime.
  /// Skips, without recursing, everything up to the `close` token that ends
  /// the current level and leaves it unconsumed; nested open/close pairs
  /// are skipped whole. Stops early at the end of input, and inside an
  /// expression also at the tokens that end a cell list or property.
  void skip_nested(TokenKind open, TokenKind close) {
    size_t depth = 0;
    while (true) {
      const Token& t = lexer_.peek();
      if (t.kind == TokenKind::kEnd) return;
      if (t.kind == close) {
        if (depth == 0) return;
        --depth;
      } else if (t.kind == open) {
        ++depth;
      } else if (open == TokenKind::kLParen &&
                 (t.kind == TokenKind::kRAngle || t.kind == TokenKind::kSemi)) {
        return;
      }
      lexer_.next();
    }
  }

  void recover_to_semi() {
    while (true) {
      const Token& t = lexer_.peek();
      if (t.kind == TokenKind::kEnd) return;
      if (t.kind == TokenKind::kSemi) {
        lexer_.next();
        return;
      }
      if (t.kind == TokenKind::kRBrace) return;  // let caller close the node
      lexer_.next();
    }
  }

  Lexer& lexer_;
  support::DiagnosticEngine* diags_;
  std::vector<support::Atom> pending_labels_;
  /// Current node + expression nesting (see kMaxNesting).
  int depth_ = 0;
};

}  // namespace

std::unique_ptr<Tree> parse_dts(std::string_view source, std::string filename,
                                const SourceManager& sources,
                                support::DiagnosticEngine& diags,
                                const ParseOptions& options) {
  auto tree = std::make_unique<Tree>();
  size_t errors_before = diags.error_count();
  Lexer lexer(source, std::move(filename), diags, &sources);
  Parser parser(lexer, diags);
  parser.parse_file(*tree);
  if (options.resolve_references) {
    tree->resolve_references(diags);
  }
  if (diags.error_count() > errors_before && tree->root().children().empty() &&
      tree->root().properties().empty()) {
    return nullptr;  // nothing usable was produced
  }
  return tree;
}

std::unique_ptr<Tree> parse_dts(std::string_view source, std::string filename,
                                support::DiagnosticEngine& diags) {
  SourceManager empty;
  return parse_dts(source, std::move(filename), empty, diags);
}

bool parse_node_body_into(Node& node, Lexer& lexer,
                          support::DiagnosticEngine& diags) {
  size_t errors_before = diags.error_count();
  Parser parser(lexer, diags);
  parser.parse_body(node);
  return diags.error_count() == errors_before;
}

}  // namespace llhsc::dts
