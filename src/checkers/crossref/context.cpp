#include "checkers/crossref/context.hpp"

#include <map>

#include "obs/obs.hpp"

namespace llhsc::checkers::crossref {

AnalysisContext::AnalysisContext(const dts::Tree& tree) : tree_(&tree) {
  obs::Span span("context.build", "context");
  // Root record seeds the cells environment; its own declarations govern
  // its children (DT spec defaults 2/1 when absent).
  NodeRecord root_rec;
  root_rec.path = "/";
  root_rec.child_ac = tree.root().address_cells_or_default();
  root_rec.child_sc = tree.root().size_cells_or_default();
  if (const dts::Property* p = tree.root().find_property("#address-cells")) {
    if (!p->provenance.empty()) root_rec.cells_provenance = p->provenance;
  }
  if (const dts::Property* p = tree.root().find_property("#size-cells")) {
    if (!p->provenance.empty()) root_rec.cells_provenance = p->provenance;
  }
  records_.emplace(&tree.root(), std::move(root_rec));
  order_.emplace_back("/", &tree.root());
  path_index_.emplace("/", &tree.root());

  // Phandle/label indexes need the whole tree before ranges parsing (ranges
  // never references phandles, but keeping one simple pass per concern is
  // clearer than fusing them).
  std::map<uint32_t, std::vector<const dts::Node*>> holders;
  tree.visit([&](const std::string&, const dts::Node& n) {
    if (const dts::Property* p = n.find_property("phandle")) {
      if (auto v = p->as_u32()) holders[*v].push_back(&n);
    }
    for (support::Atom label : n.labels()) {
      label_index_.emplace(label.str(), &n);
    }
  });
  for (auto& [value, nodes] : holders) {
    phandle_index_.emplace(value, nodes.front());
    if (nodes.size() > 1) {
      duplicates_.push_back(PhandleCollision{value, std::move(nodes)});
    }
  }

  for (const auto& child : tree.root().children()) {
    index_subtree(*child, &tree.root(), dts::path_join("/", child->name()));
  }
}

void AnalysisContext::index_subtree(const dts::Node& node,
                                    const dts::Node* parent,
                                    const std::string& path) {
  const NodeRecord& parent_rec = records_.at(parent);
  NodeRecord rec;
  rec.path = path;
  rec.parent = parent;
  rec.reg_ac = parent_rec.child_ac;
  rec.reg_sc = parent_rec.child_sc;
  rec.cells_provenance = parent_rec.cells_provenance;

  // Cells this node hands its children: own declaration when present, else
  // what governs this node (of_n_addr_cells inheritance).
  rec.child_ac = rec.reg_ac;
  rec.child_sc = rec.reg_sc;
  if (const dts::Property* p = node.find_property("#address-cells")) {
    if (auto v = p->as_u32()) {
      rec.child_ac = *v;
      if (!p->provenance.empty()) rec.cells_provenance = p->provenance;
    }
  }
  if (const dts::Property* p = node.find_property("#size-cells")) {
    if (auto v = p->as_u32()) {
      rec.child_sc = *v;
      if (!p->provenance.empty()) rec.cells_provenance = p->provenance;
    }
  }

  // Parse `ranges` tuples: (child addr, parent addr, size) under
  // (child_ac, reg_ac, child_sc). Boolean `ranges;`, absent ranges and
  // malformed widths are all the identity mapping.
  if (const dts::Property* ranges = node.find_property("ranges")) {
    auto cells = ranges->as_cells();
    if (cells && !cells->empty()) {
      uint32_t stride = rec.child_ac + rec.reg_ac + rec.child_sc;
      if (stride > 0 && rec.child_ac >= 1 && rec.child_ac <= 2 &&
          rec.reg_ac >= 1 && rec.reg_ac <= 2 && rec.child_sc >= 1 &&
          rec.child_sc <= 2) {
        for (size_t e = 0; e + stride <= cells->size(); e += stride) {
          RangeEntry entry;
          entry.child_base = dts::combine_cells(*cells, e, rec.child_ac);
          entry.parent_base =
              dts::combine_cells(*cells, e + rec.child_ac, rec.reg_ac);
          entry.size = dts::combine_cells(
              *cells, e + rec.child_ac + rec.reg_ac, rec.child_sc);
          rec.ranges.push_back(entry);
        }
        rec.identity_ranges = false;
      }
    }
  }

  records_.emplace(&node, std::move(rec));
  order_.emplace_back(path, &node);
  path_index_.emplace(path, &node);
  for (const auto& child : node.children()) {
    index_subtree(*child, &node, dts::path_join(path, child->name()));
  }
}

const AnalysisContext::NodeRecord* AnalysisContext::record(
    const dts::Node& node) const {
  auto it = records_.find(&node);
  return it == records_.end() ? nullptr : &it->second;
}

const dts::Node* AnalysisContext::node_for_phandle(uint32_t value) const {
  auto it = phandle_index_.find(value);
  return it == phandle_index_.end() ? nullptr : it->second;
}

const dts::Node* AnalysisContext::node_for_label(std::string_view label) const {
  auto it = label_index_.find(std::string(label));
  return it == label_index_.end() ? nullptr : it->second;
}

const dts::Node* AnalysisContext::node_at(std::string_view path) const {
  auto it = path_index_.find(std::string(path));
  return it == path_index_.end() ? nullptr : it->second;
}

const std::string& AnalysisContext::path_of(const dts::Node& node) const {
  static const std::string kEmpty;
  const NodeRecord* rec = record(node);
  return rec == nullptr ? kEmpty : rec->path;
}

const dts::Node* AnalysisContext::parent_of(const dts::Node& node) const {
  const NodeRecord* rec = record(node);
  return rec == nullptr ? nullptr : rec->parent;
}

std::pair<uint32_t, uint32_t> AnalysisContext::reg_cells(
    const dts::Node& node) const {
  const NodeRecord* rec = record(node);
  return rec == nullptr ? std::pair<uint32_t, uint32_t>{2, 1}
                        : std::pair<uint32_t, uint32_t>{rec->reg_ac,
                                                        rec->reg_sc};
}

const std::string& AnalysisContext::cells_provenance(
    const dts::Node& node) const {
  static const std::string kEmpty;
  const NodeRecord* rec = record(node);
  return rec == nullptr ? kEmpty : rec->cells_provenance;
}

std::optional<uint64_t> AnalysisContext::translate(const dts::Node& node,
                                                   uint64_t base,
                                                   uint64_t size) const {
  const NodeRecord* rec = record(node);
  if (rec == nullptr) return base;
  for (const dts::Node* bus = rec->parent; bus != nullptr;) {
    const NodeRecord* bus_rec = record(*bus);
    if (bus_rec == nullptr) break;
    if (!bus_rec->identity_ranges) {
      bool mapped = false;
      for (const RangeEntry& entry : bus_rec->ranges) {
        if (base >= entry.child_base &&
            base + size <= entry.child_base + entry.size) {
          base = base - entry.child_base + entry.parent_base;
          mapped = true;
          break;
        }
      }
      if (!mapped) return std::nullopt;
    }
    bus = bus_rec->parent;
  }
  return base;
}

std::optional<uint32_t> AnalysisContext::interrupt_parent_phandle(
    const dts::Node& node) const {
  for (const dts::Node* cur = &node; cur != nullptr;
       cur = parent_of(*cur)) {
    if (const dts::Property* p = cur->find_property("interrupt-parent")) {
      return p->as_u32();
    }
  }
  return std::nullopt;
}

const dts::Node* AnalysisContext::interrupt_parent(
    const dts::Node& node) const {
  auto ph = interrupt_parent_phandle(node);
  if (!ph) return nullptr;
  return node_for_phandle(*ph);
}

}  // namespace llhsc::checkers::crossref
