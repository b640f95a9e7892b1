// Recursive-descent parser for DTS. Supports the dtc feature set llhsc needs:
//   /dts-v1/; /memreserve/; /include/ "x.dtsi"; labelled nodes; top-level
//   node merging (duplicate definitions merge, dtc semantics); &label node
//   extension; /delete-node/ and /delete-property/; property values made of
//   cell lists (with parenthesised C integer expressions), strings, byte
//   strings and references.
//
// Include resolution goes through a SourceManager so tests and the delta
// engine can feed purely in-memory product lines (the paper's running example
// includes "cpus.dtsi" from the main DTS).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "dts/lexer.hpp"
#include "dts/tree.hpp"

namespace llhsc::dts {

/// Maps include names to buffers. Files registered in memory shadow the
/// filesystem; unregistered names fall back to reading relative to
/// `base_directory` when set.
class SourceManager {
 public:
  void register_file(std::string name, std::string content);
  void set_base_directory(std::string dir) { base_directory_ = std::move(dir); }

  /// Returns the buffer for `name`, loading from disk on fallback.
  [[nodiscard]] std::optional<std::string> load(const std::string& name) const;

  /// Observes every successful load() with the include name and its content,
  /// so a caller can content-address a parse against its transitive includes
  /// (the server's artifact store records (name, hash) dependency edges from
  /// this). One observer at a time; pass {} to clear.
  using LoadObserver = std::function<void(const std::string& name,
                                          const std::string& content)>;
  void set_load_observer(LoadObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  std::map<std::string, std::string> files_;
  std::string base_directory_;
  LoadObserver observer_;
};

struct ParseOptions {
  /// When true (default), &label cell references are resolved to phandles
  /// after parsing.
  bool resolve_references = true;
};

/// Parses `source` (named `filename` for diagnostics) into a Tree. Returns
/// nullptr when errors prevented producing a usable tree; partial trees with
/// recoverable errors are still returned (diagnostics carry the details).
std::unique_ptr<Tree> parse_dts(std::string_view source, std::string filename,
                                const SourceManager& sources,
                                support::DiagnosticEngine& diags,
                                const ParseOptions& options = {});

/// Convenience overload with an empty SourceManager (no includes).
std::unique_ptr<Tree> parse_dts(std::string_view source, std::string filename,
                                support::DiagnosticEngine& diags);

/// Parses node-body content from `lexer` into `node`, assuming the opening
/// '{' has already been consumed; stops after the matching '}'. Exposed for
/// the delta-module language, which embeds DTS fragments (paper Listing 4).
/// Returns false when errors were reported.
bool parse_node_body_into(Node& node, Lexer& lexer,
                          support::DiagnosticEngine& diags);

}  // namespace llhsc::dts
