#include "checkers/graph/rules.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checkers/graph/fixpoint.hpp"
#include "obs/obs.hpp"

namespace llhsc::checkers::graph {

namespace {

constexpr uint32_t kUnset = UINT32_MAX;

using crossref::emit_finding;

std::string edge_note(const DeviceGraph& g, const Edge& e) {
  std::string note = "'" + e.property + "' entry " +
                     std::to_string(e.entry_index) + " references ";
  if (e.resolved) {
    note += g.node(e.provider).path;
  } else {
    note += "missing phandle " + std::to_string(e.phandle);
  }
  note += " (" + std::string(to_string(e.kind)) + ")";
  return note;
}

FlowStep step_for_edge(const DeviceGraph& g, const Edge& e) {
  return FlowStep{e.location, g.node(e.consumer).path, edge_note(g, e)};
}

// ---------------------------------------------------------------------------
// graph-provider-cycle
//
// Tarjan SCC over the resolved typed edges (interrupt edges excluded — the
// interrupt tree has its own structural cycle rule, interrupt-tree-cycle).
// Each component of size >= 2, and each self-loop, is reported once,
// anchored on its smallest pre-order member; the flow is the shortest cycle
// through the anchor (BFS inside the component).
// ---------------------------------------------------------------------------
void run_provider_cycle(const DeviceGraph& g, const RuleOptions& options,
                        Findings& out) {
  obs::Span span("graph.cycles", "graph");

  // Dense successor lists, keeping the edge index for flow rendering.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> succ(
      g.nodes().size());
  for (uint32_t ei = 0; ei < g.edges().size(); ++ei) {
    const Edge& e = g.edge(ei);
    if (!e.resolved || e.kind == EdgeKind::kInterrupt) continue;
    succ[e.consumer].push_back({e.provider, ei});
  }
  std::vector<std::vector<uint32_t>> adj(g.nodes().size());
  for (uint32_t n = 0; n < succ.size(); ++n) {
    for (const auto& [m, ei] : succ[n]) adj[n].push_back(m);
  }

  auto components =
      tarjan_scc(g.nodes().size(), [&adj](uint32_t n) -> const auto& {
        return adj[n];
      });

  // Components come out in reverse-topological completion order; report in
  // anchor (pre-order) order instead so output is position-stable.
  std::vector<const std::vector<uint32_t>*> cyclic;
  for (const auto& comp : components) {
    bool is_cycle = comp.size() >= 2;
    if (!is_cycle) {
      for (const auto& [m, ei] : succ[comp.front()]) {
        if (m == comp.front()) is_cycle = true;  // self-loop
      }
    }
    if (is_cycle) cyclic.push_back(&comp);
  }
  std::sort(cyclic.begin(), cyclic.end(),
            [](const auto* a, const auto* b) {
              return a->front() < b->front();
            });

  for (const auto* comp : cyclic) {
    uint32_t anchor = comp->front();  // members are sorted — smallest wins
    std::vector<bool> in_comp(g.nodes().size(), false);
    for (uint32_t m : *comp) in_comp[m] = true;

    // Shortest cycle through the anchor: BFS over component-internal edges
    // (FIFO pops in distance order), closed by the first edge found back to
    // the anchor. A self-loop on the anchor closes at distance 0.
    std::vector<uint32_t> via(g.nodes().size(), kUnset);  // edge into node
    Worklist wl(g.nodes().size());
    std::vector<bool> seen(g.nodes().size(), false);
    seen[anchor] = true;
    wl.push(anchor);
    uint32_t closing_edge = kUnset;
    run_to_fixpoint(wl, [&](uint32_t n, Worklist& w) {
      for (const auto& [m, ei] : succ[n]) {
        if (!in_comp[m]) continue;
        if (m == anchor && closing_edge == kUnset) closing_edge = ei;
        if (seen[m]) continue;
        seen[m] = true;
        via[m] = ei;
        w.push(m);
      }
    });

    // Rebuild the path anchor -> ... -> closer from the BFS parents.
    std::vector<uint32_t> cycle_edges;
    if (closing_edge != kUnset) {
      cycle_edges.push_back(closing_edge);
      uint32_t cur = g.edge(closing_edge).consumer;
      while (cur != anchor && via[cur] != kUnset) {
        cycle_edges.push_back(via[cur]);
        cur = g.edge(via[cur]).consumer;
      }
      std::reverse(cycle_edges.begin(), cycle_edges.end());
    }

    const GraphNode& a = g.node(anchor);
    std::string message =
        "provider dependencies form a cycle through " +
        std::to_string(comp->size()) + " node(s)";
    if (!cycle_edges.empty()) {
      message += ":";
      for (uint32_t ei : cycle_edges) {
        message += " " + g.node(g.edge(ei).consumer).path + " ->";
      }
      message += " " + a.path;
    }
    Finding* f = emit_finding(options, out, "graph-provider-cycle", a.path,
                              std::move(message), a.location, a.provenance,
                              cycle_edges.empty()
                                  ? std::string()
                                  : g.edge(cycle_edges.front()).property);
    if (f == nullptr) continue;
    if (comp->size() >= 2) {
      f->other_subject = g.node((*comp)[1]).path;
    }
    for (uint32_t ei : cycle_edges) {
      f->flow.push_back(step_for_edge(g, g.edge(ei)));
    }
    obs::count("graph.cycle_findings", "graph", 1);
  }
}

// ---------------------------------------------------------------------------
// graph-status-propagation
//
// Taint sources: a resolved edge into an effectively-disabled provider, and
// an unresolved phandle edge (the provider does not exist at all). Taint
// flows from provider to consumer (reverse BFS), so dist[n] is the length of
// the shortest dependency chain from n to a bad provider; the flow renders
// that chain hop by hop. Only enabled consumers report — a disabled consumer
// hanging off a disabled provider is intentional.
// ---------------------------------------------------------------------------
void run_status_propagation(const DeviceGraph& g, const RuleOptions& options,
                            Findings& out) {
  obs::Span span("graph.status", "graph");

  const size_t n_nodes = g.nodes().size();
  std::vector<uint32_t> dist(n_nodes, kUnset);
  std::vector<uint32_t> via(n_nodes, kUnset);  // edge toward the cause

  Worklist wl(n_nodes);
  for (uint32_t ei = 0; ei < g.edges().size(); ++ei) {
    const Edge& e = g.edge(ei);
    bool bad_provider =
        (e.resolved && g.node(e.provider).effectively_disabled) ||
        (!e.resolved && e.phandle != 0);
    if (!bad_provider) continue;
    if (dist[e.consumer] <= 1) continue;  // keep the first (lowest) edge
    dist[e.consumer] = 1;
    via[e.consumer] = ei;
    wl.push(e.consumer);
  }

  run_to_fixpoint(wl, [&](uint32_t n, Worklist& w) {
    // n is tainted; every consumer referencing n inherits the taint.
    for (uint32_t ei : g.node(n).in) {
      const Edge& e = g.edge(ei);
      if (dist[e.consumer] <= dist[n] + 1) continue;
      dist[e.consumer] = dist[n] + 1;
      via[e.consumer] = ei;
      w.push(e.consumer);
    }
  });

  for (uint32_t n = 0; n < n_nodes; ++n) {
    if (dist[n] == kUnset) continue;
    const GraphNode& node = g.node(n);
    if (node.effectively_disabled) continue;
    if (node.status == NodeStatus::kOther) continue;  // reserved/fail-*

    // Walk the chain to the cause for the message and flow.
    std::vector<uint32_t> chain;
    uint32_t cur = n;
    while (via[cur] != kUnset) {
      uint32_t ei = via[cur];
      chain.push_back(ei);
      const Edge& e = g.edge(ei);
      if (!e.resolved || dist[e.consumer] == 1) break;
      cur = e.provider;
    }
    const Edge& cause = g.edge(chain.back());
    std::string message;
    if (cause.resolved) {
      message = "enabled node transitively depends on disabled provider " +
                g.node(cause.provider).path + " (" +
                std::to_string(dist[n]) + " hop(s))";
    } else {
      message = "enabled node transitively depends on missing provider "
                "(phandle " +
                std::to_string(cause.phandle) + ", " +
                std::to_string(dist[n]) + " hop(s))";
    }
    const Edge& first = g.edge(chain.front());
    Finding* f = emit_finding(options, out, "graph-status-propagation",
                              node.path, std::move(message), first.location,
                              first.provenance, first.property);
    if (f == nullptr) continue;
    if (cause.resolved) f->other_subject = g.node(cause.provider).path;
    for (uint32_t ei : chain) f->flow.push_back(step_for_edge(g, g.edge(ei)));
    if (cause.resolved) {
      const GraphNode& p = g.node(cause.provider);
      f->flow.push_back(FlowStep{
          p.location, p.path,
          p.status == NodeStatus::kDisabled
              ? "status is \"disabled\""
              : "disabled through an ancestor's status"});
    }
    obs::count("graph.status_findings", "graph", 1);
  }
}

// ---------------------------------------------------------------------------
// graph-cells-arity
//
// The builder marks an edge truncated when the consumer tuple ran out of
// cells against the provider's #*-cells (or, for interrupts, when the
// property length is not a multiple of #interrupt-cells). One finding per
// truncated edge, typed by the edge kind, with a consumer -> provider flow.
// ---------------------------------------------------------------------------
void run_cells_arity(const DeviceGraph& g, const RuleOptions& options,
                     Findings& out) {
  obs::Span span("graph.arity", "graph");

  for (uint32_t ei = 0; ei < g.edges().size(); ++ei) {
    const Edge& e = g.edge(ei);
    if (!e.truncated || !e.resolved) continue;
    const GraphNode& consumer = g.node(e.consumer);
    const GraphNode& provider = g.node(e.provider);
    std::string message =
        std::string(to_string(e.kind)) + " edge ('" + e.property +
        "' entry " + std::to_string(e.entry_index) + ") violates the " +
        std::to_string(e.arity) + "-cell contract of provider " +
        provider.path;
    Finding* f = emit_finding(options, out, "graph-cells-arity",
                              consumer.path, std::move(message), e.location,
                              e.provenance, e.property);
    if (f == nullptr) continue;
    f->other_subject = provider.path;
    f->flow.push_back(step_for_edge(g, e));
    f->flow.push_back(FlowStep{provider.location, provider.path,
                               "declares the " + std::to_string(e.arity) +
                                   "-cell " + std::string(to_string(e.kind)) +
                                   " contract"});
    obs::count("graph.arity_findings", "graph", 1);
  }
}

// ---------------------------------------------------------------------------
// graph-orphan-provider
//
// Demand fixpoint: every enabled non-provider node demands its providers,
// and demand is transitive (a demanded provider demands the providers *it*
// consumes). A provider that is referenced but never demanded is live only
// through disabled consumers — dead configuration weight. The zero-reference
// case stays with the crossref provider-orphan rule.
// ---------------------------------------------------------------------------
void run_orphan_provider(const DeviceGraph& g, const RuleOptions& options,
                         Findings& out) {
  obs::Span span("graph.orphan", "graph");

  const size_t n_nodes = g.nodes().size();
  std::vector<bool> demanded(n_nodes, false);
  Worklist wl(n_nodes);
  for (uint32_t n = 0; n < n_nodes; ++n) {
    const GraphNode& node = g.node(n);
    if (node.is_provider || node.effectively_disabled) continue;
    demanded[n] = true;
    wl.push(n);
  }
  run_to_fixpoint(wl, [&](uint32_t n, Worklist& w) {
    for (uint32_t ei : g.node(n).out) {
      const Edge& e = g.edge(ei);
      if (!e.resolved || demanded[e.provider]) continue;
      demanded[e.provider] = true;
      w.push(e.provider);
    }
  });

  for (uint32_t n = 0; n < n_nodes; ++n) {
    const GraphNode& node = g.node(n);
    if (!node.is_provider || node.effectively_disabled) continue;
    if (demanded[n] || node.in.empty()) continue;
    Finding* f = emit_finding(options, out, "graph-orphan-provider",
                              node.path,
                              "provider is referenced, but only by consumers "
                              "no enabled device transitively demands",
                              node.location, node.provenance, std::string());
    if (f == nullptr) continue;
    // Name the (dead) consumers — at most four, in edge order.
    size_t steps = 0;
    for (uint32_t ei : node.in) {
      if (steps++ == 4) break;
      f->flow.push_back(step_for_edge(g, g.edge(ei)));
    }
    obs::count("graph.orphan_findings", "graph", 1);
  }
}

}  // namespace

Findings GraphChecker::check(const DeviceGraph& g) const {
  Findings out;
  run_provider_cycle(g, options_, out);
  run_status_propagation(g, options_, out);
  run_cells_arity(g, options_, out);
  run_orphan_provider(g, options_, out);
  return out;
}

Findings check_exclusive_providers(const std::vector<UnitGraph>& units,
                                   const RuleOptions& options) {
  obs::Span span("graph.exclusive", "graph");
  Findings out;

  struct Claim {
    size_t unit_index;
    uint32_t node;
    uint32_t edge;
  };
  // provider path -> first claim, in unit order (std::map for stable,
  // path-sorted reporting within each later unit).
  std::map<std::string, Claim> first_claim;

  for (size_t ui = 0; ui < units.size(); ++ui) {
    const DeviceGraph& g = *units[ui].graph;
    // Collect this unit's claims first so a unit never conflicts with
    // itself, then merge against earlier units.
    std::map<std::string, Claim> local;
    for (uint32_t n = 0; n < g.nodes().size(); ++n) {
      const GraphNode& node = g.node(n);
      if (!node.is_provider || node.effectively_disabled) continue;
      if (node.node != nullptr &&
          node.node->find_property("shared") != nullptr) {
        continue;  // provider opted out of exclusivity
      }
      for (uint32_t ei : node.in) {
        const Edge& e = g.edge(ei);
        // Interrupt controllers are virtualized per VM, never passed
        // through exclusively — an interrupt edge is not a claim.
        if (e.kind == EdgeKind::kInterrupt) continue;
        if (g.node(e.consumer).effectively_disabled) continue;
        local.emplace(node.path, Claim{ui, n, ei});
        break;  // first enabled consumer is the representative
      }
    }
    for (const auto& [path, claim] : local) {
      auto it = first_claim.find(path);
      if (it == first_claim.end()) {
        first_claim.emplace(path, claim);
        continue;
      }
      const Claim& first = it->second;
      const DeviceGraph& fg = *units[first.unit_index].graph;
      const GraphNode& node = (*units[claim.unit_index].graph).node(claim.node);
      const Edge& edge = (*units[claim.unit_index].graph).edge(claim.edge);
      Finding* f = emit_finding(
          options, out, "graph-exclusive-provider", path,
          "exclusive provider is claimed by unit '" +
              units[first.unit_index].unit + "' and unit '" +
              units[claim.unit_index].unit + "'",
          edge.location, node.provenance, edge.property);
      if (f == nullptr) continue;
      f->other_subject = units[first.unit_index].unit;
      const Edge& fe = fg.edge(first.edge);
      f->flow.push_back(FlowStep{
          fe.location, fg.node(fe.consumer).path,
          "claims " + path + " in unit '" + units[first.unit_index].unit +
              "' via '" + fe.property + "'"});
      f->flow.push_back(FlowStep{
          edge.location, g.node(edge.consumer).path,
          "claims " + path + " in unit '" + units[claim.unit_index].unit +
              "' via '" + edge.property + "'"});
      obs::count("graph.exclusive_findings", "graph", 1);
    }
  }
  return out;
}

}  // namespace llhsc::checkers::graph
