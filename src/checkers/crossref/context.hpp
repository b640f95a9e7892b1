// AnalysisContext — the shared, indexed view of one dts::Tree that every
// checker reads instead of re-walking the tree: lint, the cross-reference
// rules, the device-graph build (checkers/graph/graph.hpp), the syntactic
// checker, and the semantic checker's region extraction and claim
// collection. It is the one place a checker gets a node's path, its
// governing cells or its interrupt parent. checkers::run_battery builds
// one per check, outside every stage, and hands it to each; the lift
// engine builds one per slice. Construction is the `context.build` obs
// span. Built in a single pre-order pass, it provides:
//   * phandle -> node, label -> node and path -> node indexes;
//   * per-node structural facts: parent pointer, full path, the
//     #address-cells / #size-cells governing the node's own `reg`
//     (nearest-ancestor resolution, Linux of_n_addr_cells style) and the
//     cells it declares for its children;
//   * a memoised `ranges` translation environment: translate() maps a
//     child-bus-local (base, size) range through every ancestor bus's
//     `ranges` into the CPU view, Linux of_translate_address style;
//   * interrupt-tree navigation: the interrupt parent of a node is its own
//     `interrupt-parent` phandle, or the nearest ancestor's (DT spec §2.4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dts/tree.hpp"

namespace llhsc::checkers::crossref {

/// dtc emits 0 or 0xffffffff for a reference an overlay leaves open (-@):
/// "no node yet" rather than a resolvable value.
[[nodiscard]] constexpr bool is_phandle_placeholder(uint64_t cell) {
  return cell == 0 || cell == 0xffffffffull;
}

/// One explicit-phandle collision: two or more nodes carry `value`.
struct PhandleCollision {
  uint32_t value = 0;
  std::vector<const dts::Node*> holders;
};

class AnalysisContext {
 public:
  explicit AnalysisContext(const dts::Tree& tree);
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  [[nodiscard]] const dts::Tree& tree() const { return *tree_; }

  // -- indexes --
  /// Node carrying `phandle = <value>`, or nullptr. For collided values the
  /// first holder in document order wins (collisions are reported
  /// separately through duplicate_phandles()).
  [[nodiscard]] const dts::Node* node_for_phandle(uint32_t value) const;
  [[nodiscard]] const dts::Node* node_for_label(std::string_view label) const;
  [[nodiscard]] const dts::Node* node_at(std::string_view path) const;
  [[nodiscard]] const std::vector<PhandleCollision>& duplicate_phandles()
      const {
    return duplicates_;
  }

  // -- per-node facts --
  /// Full path ("" when the node is not part of this tree).
  [[nodiscard]] const std::string& path_of(const dts::Node& node) const;
  /// Parent node (nullptr for the root or foreign nodes).
  [[nodiscard]] const dts::Node* parent_of(const dts::Node& node) const;
  /// (#address-cells, #size-cells) governing this node's `reg`.
  [[nodiscard]] std::pair<uint32_t, uint32_t> reg_cells(
      const dts::Node& node) const;
  /// The delta module that wrote the governing cells declaration ("" = core).
  [[nodiscard]] const std::string& cells_provenance(
      const dts::Node& node) const;

  // -- address translation --
  /// Maps a (base, size) range local to `node`'s bus through every ancestor
  /// `ranges` into the CPU view. nullopt when some bus's ranges does not
  /// cover the range. Absent or boolean `ranges;` is the identity.
  [[nodiscard]] std::optional<uint64_t> translate(const dts::Node& node,
                                                  uint64_t base,
                                                  uint64_t size) const;

  // -- interrupt tree --
  /// Raw `interrupt-parent` phandle applying to `node` (own property or
  /// nearest ancestor's), nullopt when no ancestor declares one.
  [[nodiscard]] std::optional<uint32_t> interrupt_parent_phandle(
      const dts::Node& node) const;
  /// The resolved interrupt parent node, or nullptr (no declaration, or a
  /// dangling phandle — rules distinguish via interrupt_parent_phandle()).
  [[nodiscard]] const dts::Node* interrupt_parent(const dts::Node& node) const;

  /// Pre-order list of (path, node) — the iteration order rules use.
  [[nodiscard]] const std::vector<std::pair<std::string, const dts::Node*>>&
  nodes() const {
    return order_;
  }

 private:
  struct RangeEntry {
    uint64_t child_base = 0;
    uint64_t parent_base = 0;
    uint64_t size = 0;
  };
  struct NodeRecord {
    std::string path;
    const dts::Node* parent = nullptr;
    uint32_t reg_ac = 2, reg_sc = 1;      // cells governing this node's reg
    uint32_t child_ac = 2, child_sc = 1;  // cells this node hands children
    std::string cells_provenance;
    /// Parsed `ranges` tuples (empty + !identity never occurs; identity is
    /// the absent/boolean/malformed case).
    std::vector<RangeEntry> ranges;
    bool identity_ranges = true;
  };

  void index_subtree(const dts::Node& node, const dts::Node* parent,
                     const std::string& path);
  [[nodiscard]] const NodeRecord* record(const dts::Node& node) const;

  const dts::Tree* tree_;
  std::unordered_map<uint32_t, const dts::Node*> phandle_index_;
  std::unordered_map<std::string, const dts::Node*> label_index_;
  std::unordered_map<std::string, const dts::Node*> path_index_;
  std::unordered_map<const dts::Node*, NodeRecord> records_;
  std::vector<PhandleCollision> duplicates_;
  std::vector<std::pair<std::string, const dts::Node*>> order_;
};

}  // namespace llhsc::checkers::crossref
