// Lexer for the DeviceTree source (DTS) language, dtc-compatible for the
// constructs llhsc consumes: nodes, properties, labels, references, cell
// lists with C-style integer expressions, byte strings, strings, and the
// /dts-v1/, /memreserve/, /delete-node/, /delete-property/ directives.
// Comments (// and /* */) are skipped.
//
// /include/ "file" is handled here, textually, exactly as dtc does: the
// included buffer is spliced into the token stream at the directive site, so
// includes are legal anywhere (the paper's Listing 1 includes "cpus.dtsi"
// inside the root node body).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace llhsc::dts {

/// Deepest nesting any parser over this lexer accepts (DTS node bodies and
/// cell expressions, delta `when` conditions, feature-model bodies): a
/// bound on the stack of the parser and of every recursive pass over its
/// output. Deeper input is one located parse error.
inline constexpr int kMaxNesting = 256;

/// Deepest /include/ nesting the lexer follows (the include-cycle guard).
/// Deeper input is one located dts-include error.
inline constexpr int kMaxIncludeDepth = 32;

/// Holds one nesting level for its lifetime.
struct NestingGuard {
  explicit NestingGuard(int& depth) : depth(&depth) { ++*this->depth; }
  ~NestingGuard() { --*depth; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;
  int* depth;
};

class SourceManager;  // parser.hpp; lexer only needs load()

enum class TokenKind : uint8_t {
  kEnd,
  kLBrace,      // {
  kRBrace,      // }
  kSemi,        // ;
  kLAngle,      // <
  kRAngle,      // >
  kLBracket,    // [
  kRBracket,    // ]
  kLParen,      // (
  kRParen,      // )
  kEquals,      // =
  kComma,       // ,
  kSlash,       // / (root node)
  kIdent,       // node/property name (may contain @ # , . _ + - ?)
  kLabel,       // ident:
  kRef,         // &label or &{/path}
  kString,      // "..."
  kInt,         // integer literal
  kDirective,   // /dts-v1/ /memreserve/ /delete-node/ /delete-property/
  kArith,       // + - * % << >> | & ^ ~ (inside expressions)
};

/// Trivially copyable: `text` is an interned atom (ident names, string
/// payloads and directives repeat massively across a corpus) and the
/// location's file name is interned too, so producing and copying tokens
/// allocates nothing.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  support::Atom text;     // raw text (ident name, string payload, directive)
  uint64_t value = 0;     // kInt
  support::SourceLocation location;
};

class Lexer {
 public:
  /// Without a SourceManager, /include/ directives are reported as errors.
  Lexer(std::string_view source, std::string filename,
        support::DiagnosticEngine& diags,
        const SourceManager* sources = nullptr);

  /// Returns the next token, advancing. kEnd is sticky.
  Token next();
  /// One-token lookahead.
  [[nodiscard]] const Token& peek();

  /// Lexes the remainder as a token vector (testing convenience).
  std::vector<Token> tokenize_all();

 private:
  struct Buffer {
    // Heap-allocated storage for included files: `src` views into it, and the
    // indirection keeps the view stable when buffers_ reallocates.
    std::unique_ptr<std::string> owned;
    std::string_view src;
    support::Atom filename;  // interned once, so here() allocates nothing
    size_t pos = 0;
    uint32_t line = 1;
    uint32_t column = 1;
  };

  void skip_trivia();
  Token lex_token();
  Token make(TokenKind kind, support::Atom text = {});
  /// Advances while `pred(cur())` holds inside the current buffer and returns
  /// the consumed span as a view into the buffer (no copy).
  template <typename Pred>
  std::string_view take_while(Pred pred);
  void handle_include(const support::SourceLocation& loc);
  [[nodiscard]] Buffer& top() { return buffers_.back(); }
  [[nodiscard]] char cur() const;
  [[nodiscard]] char ahead(size_t n = 1) const;
  void advance();
  [[nodiscard]] support::SourceLocation here() const;
  [[nodiscard]] bool at_end_of_buffer() const;

  std::vector<Buffer> buffers_;
  support::DiagnosticEngine* diags_;
  const SourceManager* sources_;
  Token lookahead_;
  bool has_lookahead_ = false;
};

}  // namespace llhsc::dts
