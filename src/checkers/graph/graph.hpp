// Device-graph IR — the one decoded form of every reference in a tree.
// Built once per check from the check's crossref::AnalysisContext (one
// pre-order pass over the same indexes), it turns the DTS into a typed
// property graph. DeviceGraph::build is the only reference decoder the
// reference rules use: the cross-reference rules read the per-reference
// verdicts off its edges, and the dataflow rules (checkers/graph/rules.hpp)
// read the whole-graph structure the per-edge rules cannot see. The
// semantic checker's claim collectors (checkers/semantic.hpp) decode
// `interrupts` and `assigned-clocks` tuples themselves, because their
// stride and inheritance rules differ from the edges' and reading edges
// would change uniqueness verdicts.
//
//   * one GraphNode per DT node, carrying its path, normalized status
//     (okay / disabled, with ancestor disabling folded in — a node under a
//     disabled bus is effectively disabled per the DT spec), provider role,
//     and source/delta provenance;
//   * one Edge per phandle+args tuple of every consumer property (`clocks`,
//     `resets`, `power-domains`, `dmas`, `*-gpios`, `pwms`, …) plus one per
//     `interrupts` tuple routed through the effective interrupt parent —
//     each typed by the provider contract (`#clock-cells` -> kClock, …) and
//     carrying the consumer property's source location and delta provenance,
//     so a defect path renders as a SARIF code flow step by step.
//
// The graph is self-contained after build (paths and facts are copied out of
// the context); only the dts::Node pointers alias the source tree, so the
// tree must outlive the graph — the server's GraphArtifact keeps both.
//
// Analyses (checkers/graph/rules.hpp) run Tarjan SCC and worklist fixpoints
// (checkers/graph/fixpoint.hpp) over this IR instead of re-walking the tree.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checkers/crossref/context.hpp"
#include "dts/tree.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::checkers::graph {

/// The provider contract that types an edge (crossref::phandle_args_specs()
/// names the kind of each consumer property).
enum class EdgeKind : uint8_t {
  kClock,
  kInterrupt,
  kPowerDomain,
  kReset,
  kDma,
  kGpio,
  kPwm,
  kPhy,
  kMailbox,
  kIoChannel,
  kThermalSensor,
  kOther,
};

[[nodiscard]] std::string_view to_string(EdgeKind k);

/// One consumer->provider dependency: entry `entry_index` of the consumer's
/// `property`. Unresolved edges (placeholder or dangling phandle, or no
/// interrupt parent) keep provider == kNoNode; missing_cells edges name a
/// provider without a usable `cells_property` (absent, not a u32, or for
/// `interrupts` 0), unlike a legitimate `#clock-cells = <0>`; truncated
/// edges ran out of argument cells against the provider's arity. Decoding
/// a property stops at its first edge of these three kinds.
struct Edge {
  static constexpr uint32_t kNoNode = UINT32_MAX;

  uint32_t consumer = kNoNode;
  uint32_t provider = kNoNode;
  EdgeKind kind = EdgeKind::kOther;
  std::string property;        // consumer property name
  size_t entry_index = 0;      // which tuple within the property
  uint32_t phandle = 0;        // referenced phandle (interrupts: the parent's)
  uint64_t phandle_cell = 0;   // as written: /bits/ 64 keeps the high bits
  std::string_view cells_property;  // provider-side #*-cells (static text)
  uint32_t arity = 0;          // argument cells the provider demands
  size_t args = 0;             // argument cells present: arity unless truncated
  bool resolved = false;       // provider index is valid
  bool missing_cells = false;  // provider declares no usable cells_property
  bool truncated = false;      // specifier ran out of cells for `arity`
  support::SourceLocation location;  // of the consumer property
  std::string provenance;      // delta module of the consumer property
};

/// Normalized `status` (DT spec §2.3.4). Absent status means enabled.
enum class NodeStatus : uint8_t { kOkay, kDisabled, kOther };

struct GraphNode {
  const dts::Node* node = nullptr;
  std::string path;
  NodeStatus status = NodeStatus::kOkay;
  /// Own status, or any ancestor's, is "disabled" — the DT-effective state.
  bool effectively_disabled = false;
  /// Declares at least one #*-cells provider contract.
  bool is_provider = false;
  std::vector<uint32_t> out;  // edge indices where this node consumes
  std::vector<uint32_t> in;   // edge indices where this node provides
  support::SourceLocation location;
  std::string provenance;
};

/// The typed property graph of one tree. Node order is the context's
/// pre-order, edge order is (node pre-order, property order, entry order) —
/// both deterministic, so analyses iterate without sorting.
class DeviceGraph {
 public:
  /// Builds from the check's context (checkers::run_battery shares one with
  /// the crossref and semantic checkers). Records the `graph.build` span.
  [[nodiscard]] static DeviceGraph build(const crossref::AnalysisContext& ctx);
  /// Convenience: builds a private context first.
  [[nodiscard]] static DeviceGraph build(const dts::Tree& tree);

  [[nodiscard]] const std::vector<GraphNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const GraphNode& node(uint32_t index) const {
    return nodes_[index];
  }
  [[nodiscard]] const Edge& edge(uint32_t index) const {
    return edges_[index];
  }

 private:
  std::vector<GraphNode> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace llhsc::checkers::graph
