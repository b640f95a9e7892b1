// In-memory DeviceTree model. Mirrors the DTS data model of the DeviceTree
// Specification v0.4: a tree of named nodes, each carrying an ordered list of
// properties; property values are sequences of chunks — cell arrays (<...>),
// strings, byte strings ([..]) and label references (&label).
//
// Two llhsc-specific extensions:
//   * provenance: every node/property remembers which delta module produced
//     it (empty = core module), so checker findings can be traced back to the
//     culpable delta (paper §III-B);
//   * merge semantics matching dtc: defining the same node twice merges the
//     bodies, with later properties overriding earlier ones. The delta engine
//     builds its `modifies` operation on top of this.
//
// All of the model's string payload — node names, property names, labels,
// string values, label references, provenance ids — is interned
// (support/intern.hpp): fields are support::Atom views into the process-wide
// arena-backed table. A Cell is trivially copyable, a Chunk copy clones no
// characters, and Node::clone()/merge_from() — the hot operations of delta
// derivation — move pointer pairs instead of std::strings. Atoms are stable
// for the process lifetime, so subtrees move between trees freely.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/intern.hpp"

namespace llhsc::dts {

using support::Atom;

/// One 32-bit cell inside <...>; either a literal or a reference to a label
/// (resolved to a phandle during finalisation).
struct Cell {
  uint64_t value = 0;       // literal (may exceed 32 bits before validation)
  Atom ref;                 // label name when is_ref
  bool is_ref = false;

  static Cell literal(uint64_t v) { return Cell{v, {}, false}; }
  static Cell reference(Atom label) { return Cell{0, label, true}; }
  friend bool operator==(const Cell&, const Cell&) = default;
};

enum class ChunkKind : uint8_t { kCells, kString, kBytes, kRef };

/// One comma-separated piece of a property value.
struct Chunk {
  ChunkKind kind = ChunkKind::kCells;
  std::vector<Cell> cells;   // kCells
  Atom text;                 // kString / kRef (label name)
  std::vector<uint8_t> bytes;  // kBytes
  /// Element width for kCells set by the /bits/ directive (8/16/32/64);
  /// 32 is the DTS default.
  uint8_t element_bits = 32;

  static Chunk make_cells(std::vector<Cell> cs, uint8_t bits = 32) {
    Chunk c;
    c.kind = ChunkKind::kCells;
    c.cells = std::move(cs);
    c.element_bits = bits;
    return c;
  }
  static Chunk make_string(Atom s) {
    Chunk c;
    c.kind = ChunkKind::kString;
    c.text = s;
    return c;
  }
  static Chunk make_bytes(std::vector<uint8_t> b) {
    Chunk c;
    c.kind = ChunkKind::kBytes;
    c.bytes = std::move(b);
    return c;
  }
  static Chunk make_ref(Atom label) {
    Chunk c;
    c.kind = ChunkKind::kRef;
    c.text = label;
    return c;
  }
  friend bool operator==(const Chunk&, const Chunk&) = default;
};

struct Property {
  Atom name;
  std::vector<Chunk> chunks;          // empty = boolean/presence property
  support::SourceLocation location;
  Atom provenance;                    // delta module id; empty = core

  /// Convenience constructors for programmatic tree building.
  static Property boolean(Atom name);
  static Property cells(Atom name, std::vector<uint64_t> values);
  static Property string(Atom name, Atom value);
  static Property strings(Atom name, std::vector<std::string> values);

  // -- typed readers (nullopt when the shape does not match) --
  [[nodiscard]] bool is_boolean() const { return chunks.empty(); }
  /// Flattens every kCells chunk into one cell vector (refs excluded -> nullopt).
  [[nodiscard]] std::optional<std::vector<uint64_t>> as_cells() const;
  [[nodiscard]] std::optional<std::string> as_string() const;
  [[nodiscard]] std::optional<std::vector<std::string>> as_string_list() const;
  /// First cell as u32 (the #address-cells / #size-cells accessor shape).
  [[nodiscard]] std::optional<uint32_t> as_u32() const;

  friend bool operator==(const Property& a, const Property& b) {
    return a.name == b.name && a.chunks == b.chunks;
  }
};

/// The number `count` big-endian cells from `offset` encode, each masked to
/// 32 bits: a reg or ranges address or size under #address-/#size-cells.
[[nodiscard]] inline uint64_t combine_cells(const std::vector<uint64_t>& cells,
                                            size_t offset, uint32_t count) {
  uint64_t value = 0;
  for (uint32_t i = 0; i < count; ++i) {
    value = (value << 32) | (cells[offset + i] & 0xffffffffull);
  }
  return value;
}

class Node {
 public:
  Node() = default;
  explicit Node(Atom name) : name_(name) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  Node(Node&&) = default;
  Node& operator=(Node&&) = default;

  [[nodiscard]] Atom name() const { return name_; }
  void set_name(Atom n) { name_ = n; }

  /// Node name without the unit address ("memory" for "memory@40000000").
  [[nodiscard]] std::string_view base_name() const;
  /// Unit address text after '@' (empty when absent).
  [[nodiscard]] std::string_view unit_address() const;

  [[nodiscard]] const std::vector<Property>& properties() const { return properties_; }
  [[nodiscard]] std::vector<Property>& properties() { return properties_; }
  [[nodiscard]] const Property* find_property(std::string_view name) const;
  [[nodiscard]] Property* find_property(std::string_view name);
  /// Adds or replaces (dtc merge semantics). Returns the stored property.
  Property& set_property(Property p);
  bool remove_property(std::string_view name);

  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  [[nodiscard]] const Node* find_child(std::string_view name) const;
  [[nodiscard]] Node* find_child(std::string_view name);
  /// Finds a child by name, or by base name when exactly one child matches.
  [[nodiscard]] Node* find_child_fuzzy(std::string_view name);
  Node& add_child(std::unique_ptr<Node> child);
  Node& get_or_create_child(std::string_view name);
  bool remove_child(std::string_view name);

  [[nodiscard]] const std::vector<Atom>& labels() const { return labels_; }
  void add_label(Atom label);

  [[nodiscard]] const support::SourceLocation& location() const { return location_; }
  void set_location(support::SourceLocation loc) { location_ = std::move(loc); }

  [[nodiscard]] Atom provenance() const { return provenance_; }
  void set_provenance(Atom p) { provenance_ = p; }

  /// Merges `other` into this node (dtc duplicate-definition semantics):
  /// properties override by name, children merge recursively, labels union.
  void merge_from(Node&& other);

  /// Deep copy (provenance and labels included).
  [[nodiscard]] std::unique_ptr<Node> clone() const;

  /// #address-cells / #size-cells declared *on this node* (defaults per DT
  /// spec when absent: 2 and 1 respectively).
  [[nodiscard]] uint32_t address_cells_or_default() const;
  [[nodiscard]] uint32_t size_cells_or_default() const;

  /// Total number of nodes in this subtree (including this node).
  [[nodiscard]] size_t subtree_size() const;

 private:
  Atom name_;
  std::vector<Property> properties_;
  std::vector<std::unique_ptr<Node>> children_;
  std::vector<Atom> labels_;
  support::SourceLocation location_;
  Atom provenance_;
};

struct MemReserve {
  uint64_t address = 0;
  uint64_t size = 0;
  friend bool operator==(const MemReserve&, const MemReserve&) = default;
};

/// The path of child `name` under the node at `parent` ("/" + name under
/// the root).
[[nodiscard]] inline std::string path_join(std::string_view parent,
                                           std::string_view name) {
  std::string out(parent);
  if (parent != "/") out += '/';
  out += name;
  return out;
}

/// True when `path` equals `root` or lies inside its subtree.
[[nodiscard]] inline bool within(std::string_view path, std::string_view root) {
  if (!path.starts_with(root)) return false;
  return path.size() == root.size() || root == "/" || path[root.size()] == '/';
}

/// A whole DeviceTree: root node plus file-level artifacts.
class Tree {
 public:
  Tree() : root_(std::make_unique<Node>("/")) {}

  [[nodiscard]] Node& root() { return *root_; }
  [[nodiscard]] const Node& root() const { return *root_; }

  [[nodiscard]] std::vector<MemReserve>& memreserves() { return memreserves_; }
  [[nodiscard]] const std::vector<MemReserve>& memreserves() const {
    return memreserves_;
  }

  /// Path lookup: "/", "/memory@40000000", "/cpus/cpu@0". Also accepts
  /// base-name matching when unambiguous ("/memory" finds "/memory@40000000").
  [[nodiscard]] Node* find(std::string_view path);
  [[nodiscard]] const Node* find(std::string_view path) const;

  /// The first node in pre-order carrying `label`, or nullptr. Stops at
  /// the first match; checkers look labels up in their
  /// crossref::AnalysisContext instead.
  [[nodiscard]] Node* find_label(std::string_view label);

  /// Full path of a node within this tree ("" if not found).
  [[nodiscard]] std::string path_of(const Node& node) const;

  /// Resolves &label references in cells to phandles: assigns a `phandle`
  /// property to every referenced node and substitutes the value. Reports
  /// unresolved labels through `diags`. Returns false on any error. A label
  /// names the first node in pre-order that carries it (as find_label);
  /// one indexing walk serves every reference.
  bool resolve_references(support::DiagnosticEngine& diags);

  [[nodiscard]] std::unique_ptr<Tree> clone() const;

  /// Visits every node pre-order; callback gets (path, node).
  template <typename F>
  void visit(F&& f) const {
    visit_impl(*root_, "/", f);
  }
  template <typename F>
  void visit(F&& f) {
    visit_impl(*root_, "/", f);
  }

  [[nodiscard]] size_t node_count() const { return root_->subtree_size(); }

 private:
  /// NodeT is Node or const Node: the callback sees the tree's constness.
  template <typename NodeT, typename F>
  static void visit_impl(NodeT& n, const std::string& path, F& f) {
    f(path, n);
    for (const auto& c : n.children()) {
      visit_impl<NodeT>(*c, path_join(path, c->name()), f);
    }
  }

  std::unique_ptr<Node> root_;
  std::vector<MemReserve> memreserves_;
};

}  // namespace llhsc::dts
