#include "checkers/graph/graph.hpp"

#include <algorithm>
#include <unordered_map>

#include "checkers/crossref/rules.hpp"
#include "obs/obs.hpp"
#include "support/strings.hpp"

namespace llhsc::checkers::graph {

namespace {

const crossref::PhandleArgsSpec* spec_for_property(std::string_view name) {
  for (const crossref::PhandleArgsSpec& spec :
       crossref::phandle_args_specs()) {
    if (spec.is_suffix ? (support::ends_with(name, spec.property) &&
                          name.size() > spec.property.size())
                       : name == spec.property) {
      return &spec;
    }
  }
  return nullptr;
}

/// The provider whose #interrupt-cells types `node`'s interrupts: the
/// resolved interrupt-parent phandle, else the nearest ancestor marked
/// interrupt-controller (the DT spec's implicit-parent fallback).
const dts::Node* effective_interrupt_provider(
    const crossref::AnalysisContext& ctx, const dts::Node& node) {
  if (ctx.interrupt_parent_phandle(node)) return ctx.interrupt_parent(node);
  for (const dts::Node* cur = ctx.parent_of(node); cur != nullptr;
       cur = ctx.parent_of(*cur)) {
    if (cur->find_property("interrupt-controller") != nullptr) return cur;
  }
  return nullptr;
}

NodeStatus status_of(const dts::Node& node) {
  const dts::Property* p = node.find_property("status");
  if (p == nullptr) return NodeStatus::kOkay;
  auto s = p->as_string();
  if (!s || *s == "okay" || *s == "ok") return NodeStatus::kOkay;
  if (*s == "disabled") return NodeStatus::kDisabled;
  return NodeStatus::kOther;
}

bool declares_provider_cells(const dts::Node& node) {
  const auto& specs = crossref::phandle_args_specs();
  return std::any_of(specs.begin(), specs.end(), [&](const auto& spec) {
    return node.find_property(std::string(spec.cells_property)) != nullptr;
  });
}

}  // namespace

std::string_view to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::kClock: return "clock";
    case EdgeKind::kInterrupt: return "interrupt";
    case EdgeKind::kPowerDomain: return "power-domain";
    case EdgeKind::kReset: return "reset";
    case EdgeKind::kDma: return "dma";
    case EdgeKind::kGpio: return "gpio";
    case EdgeKind::kPwm: return "pwm";
    case EdgeKind::kPhy: return "phy";
    case EdgeKind::kMailbox: return "mailbox";
    case EdgeKind::kIoChannel: return "io-channel";
    case EdgeKind::kThermalSensor: return "thermal-sensor";
    case EdgeKind::kOther: return "other";
  }
  return "other";
}

DeviceGraph DeviceGraph::build(const crossref::AnalysisContext& ctx) {
  obs::Span span("graph.build", "graph");
  DeviceGraph g;
  const auto& order = ctx.nodes();
  g.nodes_.reserve(order.size());

  std::unordered_map<const dts::Node*, uint32_t> index_of;
  index_of.reserve(order.size());

  // Pass 1: nodes. The context's order is pre-order, so a parent's index is
  // always assigned before its children's — effective_disabled folds the
  // ancestor chain in one forward sweep.
  for (const auto& [path, node] : order) {
    uint32_t idx = static_cast<uint32_t>(g.nodes_.size());
    index_of.emplace(node, idx);
    GraphNode gn;
    gn.node = node;
    gn.path = path;
    gn.status = status_of(*node);
    gn.effectively_disabled = gn.status == NodeStatus::kDisabled;
    if (!gn.effectively_disabled) {
      if (const dts::Node* parent = ctx.parent_of(*node)) {
        auto it = index_of.find(parent);
        if (it != index_of.end()) {
          gn.effectively_disabled = g.nodes_[it->second].effectively_disabled;
        }
      }
    }
    gn.is_provider = declares_provider_cells(*node);
    gn.location = node->location();
    gn.provenance = node->provenance();
    g.nodes_.push_back(std::move(gn));
  }

  auto link = [&g](Edge e) {
    uint32_t eidx = static_cast<uint32_t>(g.edges_.size());
    g.nodes_[e.consumer].out.push_back(eidx);
    if (e.resolved) g.nodes_[e.provider].in.push_back(eidx);
    g.edges_.push_back(std::move(e));
  };

  // Pass 2: edges, in (node pre-order, property order, entry order).
  for (uint32_t ci = 0; ci < g.nodes_.size(); ++ci) {
    const dts::Node* node = g.nodes_[ci].node;

    for (const dts::Property& p : node->properties()) {
      const crossref::PhandleArgsSpec* spec = spec_for_property(p.name);
      if (spec == nullptr) continue;
      auto cells = p.as_cells();
      if (!cells || cells->empty()) continue;  // the schema layer types it
      size_t i = 0;
      size_t entry = 0;
      while (i < cells->size()) {
        Edge e;
        e.consumer = ci;
        e.kind = spec->kind;
        e.property = p.name;
        e.entry_index = entry;
        e.cells_property = spec->cells_property;
        e.location = p.location.valid() ? p.location : node->location();
        e.provenance = !p.provenance.empty() ? p.provenance
                                             : node->provenance();
        const uint64_t ph = (*cells)[i];
        e.phandle = static_cast<uint32_t>(ph);
        e.phandle_cell = ph;
        const dts::Node* provider =
            crossref::is_phandle_placeholder(ph)
                ? nullptr
                : ctx.node_for_phandle(static_cast<uint32_t>(ph));
        if (provider == nullptr) {
          link(std::move(e));  // unresolved — a taint source downstream
          break;  // argument count unknowable; stop parsing this property
        }
        auto it = index_of.find(provider);
        if (it != index_of.end()) {
          e.provider = it->second;
          e.resolved = true;
        }
        const dts::Property* pc =
            provider->find_property(std::string(spec->cells_property));
        std::optional<uint32_t> argc =
            pc != nullptr ? pc->as_u32() : std::nullopt;
        if (!argc) {
          e.missing_cells = true;
          link(std::move(e));  // stride unknowable
          break;
        }
        e.arity = *argc;
        e.args = std::min<size_t>(*argc, cells->size() - i - 1);
        if (e.args < *argc) {
          e.truncated = true;
          link(std::move(e));
          break;
        }
        link(std::move(e));
        i += 1 + *argc;
        ++entry;
      }
    }

    // `interrupts` routes through the effective interrupt parent rather
    // than an inline phandle; one edge per #interrupt-cells-sized tuple.
    const dts::Property* irq = node->find_property("interrupts");
    if (irq == nullptr) continue;
    auto cells = irq->as_cells();
    if (!cells || cells->empty()) continue;
    const dts::Node* provider = effective_interrupt_provider(ctx, *node);
    Edge proto;
    proto.consumer = ci;
    proto.kind = EdgeKind::kInterrupt;
    proto.property = "interrupts";
    proto.cells_property = "#interrupt-cells";
    proto.location = irq->location.valid() ? irq->location
                                           : node->location();
    proto.provenance = !irq->provenance.empty() ? irq->provenance
                                                : node->provenance();
    if (auto ph = ctx.interrupt_parent_phandle(*node)) {
      proto.phandle = *ph;
      proto.phandle_cell = *ph;
    }
    if (provider == nullptr) {
      link(std::move(proto));  // dangling/absent parent — one taint edge
      continue;
    }
    auto it = index_of.find(provider);
    if (it != index_of.end()) {
      proto.provider = it->second;
      proto.resolved = true;
    }
    const dts::Property* ic = provider->find_property("#interrupt-cells");
    std::optional<uint32_t> want = ic != nullptr ? ic->as_u32() : std::nullopt;
    if (!want || *want == 0) {
      proto.missing_cells = true;
      link(std::move(proto));
      continue;
    }
    proto.arity = *want;
    proto.args = *want;
    const size_t tuples = cells->size() / *want;
    for (size_t t = 0; t < tuples; ++t) {
      Edge e = proto;
      e.entry_index = t;
      link(std::move(e));
    }
    if (cells->size() % *want != 0) {
      // The ragged tail is one truncated edge after the whole tuples.
      Edge tail = std::move(proto);
      tail.entry_index = tuples;
      tail.args = cells->size() % *want;
      tail.truncated = true;
      link(std::move(tail));
    }
  }

  obs::count("graph.nodes", "graph",
             static_cast<int64_t>(g.nodes_.size()));
  obs::count("graph.edges", "graph",
             static_cast<int64_t>(g.edges_.size()));
  return g;
}

DeviceGraph DeviceGraph::build(const dts::Tree& tree) {
  return build(crossref::AnalysisContext(tree));
}

}  // namespace llhsc::checkers::graph
