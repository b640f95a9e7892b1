#include "dts/tree.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <unordered_map>

#include "support/strings.hpp"

namespace llhsc::dts {

// ---- Property ----

Property Property::boolean(Atom name) {
  Property p;
  p.name = name;
  return p;
}

Property Property::cells(Atom name, std::vector<uint64_t> values) {
  Property p;
  p.name = name;
  std::vector<Cell> cs;
  cs.reserve(values.size());
  for (uint64_t v : values) cs.push_back(Cell::literal(v));
  p.chunks.push_back(Chunk::make_cells(std::move(cs)));
  return p;
}

Property Property::string(Atom name, Atom value) {
  Property p;
  p.name = name;
  p.chunks.push_back(Chunk::make_string(value));
  return p;
}

Property Property::strings(Atom name, std::vector<std::string> values) {
  Property p;
  p.name = name;
  for (auto& v : values) p.chunks.push_back(Chunk::make_string(v));
  return p;
}

std::optional<std::vector<uint64_t>> Property::as_cells() const {
  std::vector<uint64_t> out;
  for (const Chunk& c : chunks) {
    if (c.kind != ChunkKind::kCells) return std::nullopt;
    for (const Cell& cell : c.cells) {
      if (cell.is_ref) return std::nullopt;
      out.push_back(cell.value);
    }
  }
  if (chunks.empty()) return std::nullopt;
  return out;
}

std::optional<std::string> Property::as_string() const {
  if (chunks.size() != 1 || chunks[0].kind != ChunkKind::kString) {
    return std::nullopt;
  }
  return chunks[0].text.str();
}

std::optional<std::vector<std::string>> Property::as_string_list() const {
  if (chunks.empty()) return std::nullopt;
  std::vector<std::string> out;
  for (const Chunk& c : chunks) {
    if (c.kind != ChunkKind::kString) return std::nullopt;
    out.push_back(c.text.str());
  }
  return out;
}

std::optional<uint32_t> Property::as_u32() const {
  auto cells = as_cells();
  if (!cells || cells->size() != 1 || (*cells)[0] > UINT32_MAX) {
    return std::nullopt;
  }
  return static_cast<uint32_t>((*cells)[0]);
}

// ---- Node ----

std::string_view Node::base_name() const {
  std::string_view n = name_.view();
  size_t at = n.find('@');
  return at == std::string_view::npos ? n : n.substr(0, at);
}

std::string_view Node::unit_address() const {
  std::string_view n = name_.view();
  size_t at = n.find('@');
  return at == std::string_view::npos ? std::string_view{} : n.substr(at + 1);
}

const Property* Node::find_property(std::string_view name) const {
  for (const Property& p : properties_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Property* Node::find_property(std::string_view name) {
  return const_cast<Property*>(std::as_const(*this).find_property(name));
}

Property& Node::set_property(Property p) {
  for (Property& existing : properties_) {
    if (existing.name == p.name) {
      existing = std::move(p);
      return existing;
    }
  }
  properties_.push_back(std::move(p));
  return properties_.back();
}

bool Node::remove_property(std::string_view name) {
  auto it = std::find_if(properties_.begin(), properties_.end(),
                         [&](const Property& p) { return p.name == name; });
  if (it == properties_.end()) return false;
  properties_.erase(it);
  return true;
}

const Node* Node::find_child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

Node* Node::find_child(std::string_view name) {
  return const_cast<Node*>(std::as_const(*this).find_child(name));
}

Node* Node::find_child_fuzzy(std::string_view name) {
  if (Node* exact = find_child(name)) return exact;
  Node* match = nullptr;
  for (const auto& c : children_) {
    if (c->base_name() == name) {
      if (match != nullptr) return nullptr;  // ambiguous
      match = c.get();
    }
  }
  return match;
}

Node& Node::add_child(std::unique_ptr<Node> child) {
  assert(child != nullptr);
  children_.push_back(std::move(child));
  return *children_.back();
}

Node& Node::get_or_create_child(std::string_view name) {
  if (Node* existing = find_child(name)) return *existing;
  return add_child(std::make_unique<Node>(Atom(name)));
}

bool Node::remove_child(std::string_view name) {
  auto it = std::find_if(
      children_.begin(), children_.end(),
      [&](const std::unique_ptr<Node>& c) { return c->name() == name; });
  if (it == children_.end()) return false;
  children_.erase(it);
  return true;
}

void Node::add_label(Atom label) {
  if (std::find(labels_.begin(), labels_.end(), label) == labels_.end()) {
    labels_.push_back(label);
  }
}

void Node::merge_from(Node&& other) {
  for (Property& p : other.properties_) {
    set_property(std::move(p));
  }
  for (auto& child : other.children_) {
    if (Node* existing = find_child(child->name())) {
      existing->merge_from(std::move(*child));
    } else {
      children_.push_back(std::move(child));
    }
  }
  for (Atom l : other.labels_) add_label(l);
  if (!other.provenance_.empty()) provenance_ = other.provenance_;
}

std::unique_ptr<Node> Node::clone() const {
  auto out = std::make_unique<Node>(name_);
  out->properties_ = properties_;
  out->labels_ = labels_;
  out->location_ = location_;
  out->provenance_ = provenance_;
  out->children_.reserve(children_.size());
  for (const auto& c : children_) out->children_.push_back(c->clone());
  return out;
}

uint32_t Node::address_cells_or_default() const {
  const Property* p = find_property("#address-cells");
  if (p) {
    if (auto v = p->as_u32()) return *v;
  }
  return 2;  // DT spec v0.4 §2.3.5 default
}

uint32_t Node::size_cells_or_default() const {
  const Property* p = find_property("#size-cells");
  if (p) {
    if (auto v = p->as_u32()) return *v;
  }
  return 1;  // DT spec v0.4 §2.3.5 default
}

size_t Node::subtree_size() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->subtree_size();
  return n;
}

// ---- Tree ----

Node* Tree::find(std::string_view path) {
  return const_cast<Node*>(std::as_const(*this).find(path));
}

const Node* Tree::find(std::string_view path) const {
  if (path.empty() || path[0] != '/') return nullptr;
  const Node* cur = root_.get();
  size_t pos = 1;
  while (pos < path.size()) {
    size_t next = path.find('/', pos);
    std::string_view segment = path.substr(
        pos, next == std::string_view::npos ? std::string_view::npos : next - pos);
    if (segment.empty()) break;
    const Node* child =
        const_cast<Node*>(cur)->find_child_fuzzy(segment);
    if (child == nullptr) return nullptr;
    cur = child;
    if (next == std::string_view::npos) break;
    pos = next + 1;
  }
  return cur;
}

namespace {

Node* first_labelled(Node& node, std::string_view label) {
  const std::vector<Atom>& labels = node.labels();
  if (std::find(labels.begin(), labels.end(), label) != labels.end()) {
    return &node;
  }
  for (const auto& c : node.children()) {
    if (Node* found = first_labelled(*c, label)) return found;
  }
  return nullptr;
}

}  // namespace

Node* Tree::find_label(std::string_view label) {
  return first_labelled(*root_, label);
}

std::string Tree::path_of(const Node& node) const {
  std::string result;
  std::function<bool(const Node&, const std::string&)> walk =
      [&](const Node& cur, const std::string& path) {
        if (&cur == &node) {
          result = path;
          return true;
        }
        for (const auto& c : cur.children()) {
          if (walk(*c, path_join(path, c->name()))) return true;
        }
        return false;
      };
  walk(*root_, "/");
  return result;
}

bool Tree::resolve_references(support::DiagnosticEngine& diags) {
  bool ok = true;
  // Pass 1: index every explicit phandle so auto-assignment can never alias
  // one, and diagnose the aliasing dtc rejects: two nodes carrying the same
  // explicit value, and phandle properties that are not a single u32 (which
  // assignment used to silently overwrite). The same walk indexes every
  // label's first holder in pre-order with its path, so each reference
  // below is one lookup.
  struct Labelled {
    Node* node;
    std::string path;
  };
  std::unordered_map<Atom, Labelled> labels;
  std::map<uint32_t, std::string> explicit_phandles;  // value -> first holder
  visit([&](const std::string& path, Node& n) {
    for (Atom l : n.labels()) labels.try_emplace(l, Labelled{&n, path});
    const Property* p = n.find_property("phandle");
    if (p == nullptr) return;
    auto v = p->as_u32();
    if (!v) {
      diags.error("dts-bad-phandle",
                  "phandle property of node " + path +
                      " is not a single u32 cell",
                  p->location);
      ok = false;
      return;
    }
    auto [it, inserted] = explicit_phandles.emplace(*v, path);
    if (!inserted) {
      diags.error("dts-duplicate-phandle",
                  "phandle value " + std::to_string(*v) + " of node " + path +
                      " is already carried by " + it->second,
                  p->location);
      ok = false;
    }
  });
  // Fresh values only ever grow, so one never repeats an earlier one.
  uint32_t next_phandle = 1;
  auto fresh_phandle = [&] {
    while (explicit_phandles.count(next_phandle) > 0) ++next_phandle;
    return next_phandle++;
  };
  auto resolve = [&](Atom label, const Property& p,
                     const std::string& path) -> const Labelled* {
    auto it = labels.find(label);
    if (it != labels.end()) return &it->second;
    diags.error("dts-unresolved-ref",
                "unresolved reference &" + label + " in property '" + p.name +
                    "' of node " + path,
                p.location);
    ok = false;
    return nullptr;
  };
  // Fresh phandles are written after the walk: a node whose cells reference
  // its own label would otherwise grow the properties vector being iterated.
  std::unordered_map<Node*, uint32_t> assigned;
  visit([&](const std::string& path, Node& n) {
    for (Property& p : n.properties()) {
      for (Chunk& chunk : p.chunks) {
        if (chunk.kind == ChunkKind::kCells) {
          for (Cell& cell : chunk.cells) {
            if (!cell.is_ref) continue;
            const Labelled* target = resolve(cell.ref, p, path);
            if (target == nullptr) continue;
            const Property* ph = target->node->find_property("phandle");
            uint32_t phandle;
            if (ph != nullptr && ph->as_u32()) {
              phandle = *ph->as_u32();
            } else if (ph != nullptr) {
              // Malformed phandle already diagnosed in pass 1; don't make it
              // worse by overwriting the property.
              continue;
            } else {
              auto [it, fresh] = assigned.try_emplace(target->node, 0);
              if (fresh) it->second = fresh_phandle();
              phandle = it->second;
            }
            cell = Cell::literal(phandle);
          }
        } else if (chunk.kind == ChunkKind::kRef) {
          // &label outside cells expands to the full node path string.
          if (const Labelled* target = resolve(chunk.text, p, path)) {
            chunk = Chunk::make_string(target->path);
          }
        }
      }
    }
  });
  for (const auto& [target, phandle] : assigned) {
    target->set_property(Property::cells("phandle", {phandle}));
  }
  return ok;
}

std::unique_ptr<Tree> Tree::clone() const {
  auto out = std::make_unique<Tree>();
  out->root_ = root_->clone();
  out->memreserves_ = memreserves_;
  return out;
}

}  // namespace llhsc::dts
