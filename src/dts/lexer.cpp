#include "dts/lexer.hpp"

#include <cctype>

#include "dts/parser.hpp"
#include "support/strings.hpp"

namespace llhsc::dts {

namespace {
bool is_ident_start(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '#' ||
         c == '.' || c == '+' || c == '-' || c == ',';
}
bool is_ident_char(char c) {
  return is_ident_start(c) || c == '@' || c == '?';
}

/// Fixed spellings interned once per process, so punctuation tokens never
/// touch the intern table's locks.
struct FixedAtoms {
  support::Atom lbrace{"{"}, rbrace{"}"}, semi{";"}, equals{"="},
      lbracket{"["}, rbracket{"]"}, lparen{"("}, rparen{")"}, comma{","},
      shl{"<<"}, shr{">>"}, langle{"<"}, rangle{">"}, amp{"&"}, slash{"/"};
};
const FixedAtoms& fixed() {
  static const FixedAtoms f;
  return f;
}
}  // namespace

Lexer::Lexer(std::string_view source, std::string filename,
             support::DiagnosticEngine& diags, const SourceManager* sources)
    : diags_(&diags), sources_(sources) {
  Buffer b;
  b.src = source;
  b.filename = support::Atom(filename);
  buffers_.push_back(std::move(b));
}

support::SourceLocation Lexer::here() const {
  const Buffer& b = buffers_.back();
  return support::SourceLocation{b.filename, b.line, b.column};
}

bool Lexer::at_end_of_buffer() const {
  const Buffer& b = buffers_.back();
  return b.pos >= b.src.size();
}

char Lexer::cur() const {
  const Buffer& b = buffers_.back();
  return b.pos < b.src.size() ? b.src[b.pos] : '\0';
}

char Lexer::ahead(size_t n) const {
  const Buffer& b = buffers_.back();
  return b.pos + n < b.src.size() ? b.src[b.pos + n] : '\0';
}

void Lexer::advance() {
  Buffer& b = top();
  if (b.pos >= b.src.size()) return;
  if (b.src[b.pos] == '\n') {
    ++b.line;
    b.column = 1;
  } else {
    ++b.column;
  }
  ++b.pos;
}

void Lexer::skip_trivia() {
  while (true) {
    if (at_end_of_buffer()) {
      if (buffers_.size() == 1) return;
      buffers_.pop_back();  // return to the including file
      continue;
    }
    char c = cur();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
    } else if (c == '/' && ahead() == '/') {
      while (!at_end_of_buffer() && cur() != '\n') advance();
    } else if (c == '/' && ahead() == '*') {
      support::SourceLocation start = here();
      advance();
      advance();
      bool closed = false;
      while (!at_end_of_buffer()) {
        if (cur() == '*' && ahead() == '/') {
          advance();
          advance();
          closed = true;
          break;
        }
        advance();
      }
      if (!closed) {
        // Anchor at the opening '/*' — at EOF "here()" would point one past
        // the buffer, a location no editor can jump to.
        diags_->error("dts-lex", "unterminated block comment", start);
        diags_->note("dts-lex", "comment opened here is never closed", start);
      }
    } else {
      return;
    }
  }
}

Token Lexer::make(TokenKind kind, support::Atom text) {
  Token t;
  t.kind = kind;
  t.text = text;
  t.location = here();
  return t;
}

/// The span of `src` consumed while `pred` holds — the allocation-free path
/// for identifiers and digit runs, which are always contiguous in one buffer.
template <typename Pred>
std::string_view Lexer::take_while(Pred pred) {
  const Buffer& b = buffers_.back();
  size_t start = b.pos;
  while (!at_end_of_buffer() && pred(cur())) advance();
  return b.src.substr(start, buffers_.back().pos - start);
}

const Token& Lexer::peek() {
  if (!has_lookahead_) {
    lookahead_ = lex_token();
    has_lookahead_ = true;
  }
  return lookahead_;
}

Token Lexer::next() {
  if (has_lookahead_) {
    has_lookahead_ = false;
    return lookahead_;
  }
  return lex_token();
}

void Lexer::handle_include(const support::SourceLocation& loc) {
  // Consume the filename string that must follow /include/.
  Token name = lex_token();
  if (name.kind != TokenKind::kString) {
    diags_->error("dts-include", "/include/ expects a quoted filename", loc);
    return;
  }
  if (sources_ == nullptr) {
    diags_->error("dts-include",
                  "/include/ \"" + name.text +
                      "\" is not available in this context",
                  name.location);
    return;
  }
  if (static_cast<int>(buffers_.size()) > kMaxIncludeDepth) {
    diags_->error("dts-include",
                  "include depth limit exceeded at \"" + name.text + "\"",
                  name.location);
    return;
  }
  auto content = sources_->load(name.text.str());
  if (!content) {
    diags_->error("dts-include", "cannot open include \"" + name.text + "\"",
                  name.location);
    return;
  }
  Buffer b;
  b.owned = std::make_unique<std::string>(std::move(*content));
  b.src = *b.owned;
  b.filename = name.text;
  buffers_.push_back(std::move(b));
}

Token Lexer::lex_token() {
  skip_trivia();
  support::SourceLocation loc = here();
  auto at = [&](Token t) {
    t.location = loc;
    return t;
  };
  if (at_end_of_buffer() && buffers_.size() == 1) {
    return at(make(TokenKind::kEnd));
  }

  char c = cur();
  switch (c) {
    case '{': advance(); return at(make(TokenKind::kLBrace, fixed().lbrace));
    case '}': advance(); return at(make(TokenKind::kRBrace, fixed().rbrace));
    case ';': advance(); return at(make(TokenKind::kSemi, fixed().semi));
    case '=': advance(); return at(make(TokenKind::kEquals, fixed().equals));
    case '[': advance(); return at(make(TokenKind::kLBracket, fixed().lbracket));
    case ']': advance(); return at(make(TokenKind::kRBracket, fixed().rbracket));
    case '(': advance(); return at(make(TokenKind::kLParen, fixed().lparen));
    case ')': advance(); return at(make(TokenKind::kRParen, fixed().rparen));
    case ',': advance(); return at(make(TokenKind::kComma, fixed().comma));
    default: break;
  }

  if (c == '<') {
    if (ahead() == '<') {
      advance();
      advance();
      return at(make(TokenKind::kArith, fixed().shl));
    }
    advance();
    return at(make(TokenKind::kLAngle, fixed().langle));
  }
  if (c == '>') {
    if (ahead() == '>') {
      advance();
      advance();
      return at(make(TokenKind::kArith, fixed().shr));
    }
    advance();
    return at(make(TokenKind::kRAngle, fixed().rangle));
  }

  if (c == '"') {
    advance();
    std::string payload;
    while (!at_end_of_buffer() && cur() != '"') {
      if (cur() == '\\' && !at_end_of_buffer()) {
        advance();
        char esc = cur();
        switch (esc) {
          case 'n': payload += '\n'; break;
          case 't': payload += '\t'; break;
          case 'r': payload += '\r'; break;
          case '0': payload += '\0'; break;
          case '\\': payload += '\\'; break;
          case '"': payload += '"'; break;
          default: payload += esc; break;
        }
        advance();
      } else {
        payload += cur();
        advance();
      }
    }
    if (at_end_of_buffer()) {
      // Same anchoring as block comments: the opening quote, not EOF.
      diags_->error("dts-lex", "unterminated string literal", loc);
      diags_->note("dts-lex", "string opened here is never closed", loc);
      return at(make(TokenKind::kEnd));
    }
    advance();  // closing quote
    return at(make(TokenKind::kString, support::Atom(payload)));
  }

  if (c == '&') {
    advance();
    std::string_view label;
    if (cur() == '{') {
      // &{/full/path}
      advance();
      label = take_while([](char ch) { return ch != '}'; });
      if (cur() == '}') advance();
    } else {
      label = take_while(is_ident_char);
    }
    if (label.empty()) {
      // bare '&' is a bitwise operator inside expressions
      return at(make(TokenKind::kArith, fixed().amp));
    }
    return at(make(TokenKind::kRef, support::Atom(label)));
  }

  if (c == '/') {
    // Directive /ident/ or the root node '/'. Save only the cursor so the
    // buffer's owned storage is never copied (src points into it).
    size_t save_pos = top().pos;
    uint32_t save_line = top().line;
    uint32_t save_col = top().column;
    advance();
    std::string_view word = take_while([](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) || ch == '-';
    });
    if (!word.empty() && cur() == '/') {
      advance();
      if (word == "include") {
        handle_include(loc);
        return lex_token();  // splice: next token comes from the include
      }
      return at(make(TokenKind::kDirective, support::Atom(word)));
    }
    // Not a directive: rewind to just after '/'.
    top().pos = save_pos;
    top().line = save_line;
    top().column = save_col;
    advance();
    return at(make(TokenKind::kSlash, fixed().slash));
  }

  if (std::isdigit(static_cast<unsigned char>(c))) {
    const Buffer& b = buffers_.back();
    size_t start = b.pos;
    std::string_view digits = take_while([](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) != 0;
    });
    auto parsed = support::parse_integer(std::string(digits));
    if (parsed) {
      Token t = make(TokenKind::kInt, support::Atom(digits));
      t.value = *parsed;
      return at(std::move(t));
    }
    // A name like "2nd-bus" starts with a digit: continue as identifier.
    while (!at_end_of_buffer() && is_ident_char(cur())) advance();
    std::string_view word = b.src.substr(start, buffers_.back().pos - start);
    return at(make(TokenKind::kIdent, support::Atom(word)));
  }

  if (is_ident_start(c)) {
    std::string_view word = take_while(is_ident_char);
    if (cur() == ':') {
      advance();
      return at(make(TokenKind::kLabel, support::Atom(word)));
    }
    return at(make(TokenKind::kIdent, support::Atom(word)));
  }

  if (c == '+' || c == '-' || c == '*' || c == '%' || c == '|' || c == '^' ||
      c == '~' || c == '!') {
    advance();
    return at(make(TokenKind::kArith, support::Atom(std::string_view(&c, 1))));
  }

  diags_->error("dts-lex", std::string("unexpected character '") + c + "'", loc);
  advance();
  return lex_token();
}

std::vector<Token> Lexer::tokenize_all() {
  std::vector<Token> out;
  while (true) {
    Token t = next();
    bool end = t.kind == TokenKind::kEnd;
    out.push_back(std::move(t));
    if (end) return out;
  }
}

}  // namespace llhsc::dts
