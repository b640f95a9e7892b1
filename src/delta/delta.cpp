#include "delta/delta.hpp"

#include <algorithm>
#include <cassert>

namespace llhsc::delta {

// ---- WhenExpr ----

WhenExpr WhenExpr::always() { return WhenExpr{}; }

WhenExpr WhenExpr::feature(std::string name) {
  WhenExpr e;
  e.kind_ = Kind::kFeature;
  e.name_ = std::move(name);
  return e;
}

WhenExpr WhenExpr::negate(WhenExpr inner) {
  WhenExpr e;
  e.kind_ = Kind::kNot;
  e.children_.push_back(std::move(inner));
  return e;
}

WhenExpr WhenExpr::conj(WhenExpr a, WhenExpr b) {
  WhenExpr e;
  e.kind_ = Kind::kAnd;
  e.children_.push_back(std::move(a));
  e.children_.push_back(std::move(b));
  return e;
}

WhenExpr WhenExpr::disj(WhenExpr a, WhenExpr b) {
  WhenExpr e;
  e.kind_ = Kind::kOr;
  e.children_.push_back(std::move(a));
  e.children_.push_back(std::move(b));
  return e;
}

bool WhenExpr::evaluate(const std::set<std::string>& selected) const {
  switch (kind_) {
    case Kind::kTrue: return true;
    case Kind::kFeature: return selected.count(name_) > 0;
    case Kind::kNot: return !children_[0].evaluate(selected);
    case Kind::kAnd:
      return children_[0].evaluate(selected) && children_[1].evaluate(selected);
    case Kind::kOr:
      return children_[0].evaluate(selected) || children_[1].evaluate(selected);
  }
  return false;
}

void WhenExpr::collect_features(std::set<std::string>& out) const {
  if (kind_ == Kind::kFeature) out.insert(name_);
  for (const WhenExpr& c : children_) c.collect_features(out);
}

std::string WhenExpr::to_string() const {
  switch (kind_) {
    case Kind::kTrue: return "true";
    case Kind::kFeature: return name_;
    case Kind::kNot: return "!" + children_[0].to_string();
    case Kind::kAnd:
      return "(" + children_[0].to_string() + " && " +
             children_[1].to_string() + ")";
    case Kind::kOr:
      return "(" + children_[0].to_string() + " || " +
             children_[1].to_string() + ")";
  }
  return "?";
}

// ---- Operation ----

std::string_view to_string(OpKind k) {
  switch (k) {
    case OpKind::kAdds: return "adds";
    case OpKind::kModifies: return "modifies";
    case OpKind::kRemovesNode: return "removes";
    case OpKind::kRemovesProperty: return "removes-property";
  }
  return "unknown";
}

Operation::Operation(const Operation& other)
    : kind(other.kind),
      target(other.target),
      property_name(other.property_name),
      body(other.body ? other.body->clone() : nullptr),
      location(other.location) {}

Operation& Operation::operator=(const Operation& other) {
  if (this != &other) {
    kind = other.kind;
    target = other.target;
    property_name = other.property_name;
    body = other.body ? other.body->clone() : nullptr;
    location = other.location;
  }
  return *this;
}

// ---- ProductLine ----

ProductLine::ProductLine(std::shared_ptr<const dts::Tree> core,
                         std::shared_ptr<const std::vector<DeltaModule>> deltas)
    : core_(std::move(core)), deltas_(std::move(deltas)) {
  assert(core_ != nullptr && deltas_ != nullptr);
}

ProductLine::ProductLine(std::unique_ptr<dts::Tree> core,
                         std::vector<DeltaModule> deltas)
    : ProductLine(std::shared_ptr<const dts::Tree>(std::move(core)),
                  std::make_shared<const std::vector<DeltaModule>>(
                      std::move(deltas))) {}

const DeltaModule* ProductLine::find_delta(std::string_view name) const {
  for (const DeltaModule& d : *deltas_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<const DeltaModule*> ProductLine::active_deltas(
    const std::set<std::string>& selected_features) const {
  std::vector<const DeltaModule*> out;
  for (const DeltaModule& d : *deltas_) {
    if (d.when.evaluate(selected_features)) out.push_back(&d);
  }
  return out;
}

std::optional<std::vector<const DeltaModule*>> ProductLine::application_order(
    const std::set<std::string>& selected_features,
    support::DiagnosticEngine& diags) const {
  return linearize(active_deltas(selected_features), diags);
}

std::optional<std::vector<const DeltaModule*>> ProductLine::linearize(
    const std::vector<const DeltaModule*>& subset,
    support::DiagnosticEngine& diags) const {
  const std::vector<const DeltaModule*>& active = subset;

  // Kahn's algorithm with declaration-order tiebreak: the ready delta that
  // appears earliest in `active` (declaration order) goes next, giving a
  // deterministic linearisation of the strict partial order (§III-B).
  std::vector<size_t> indegree(active.size(), 0);
  std::vector<std::vector<size_t>> successors(active.size());
  auto index_of = [&](std::string_view name) -> std::optional<size_t> {
    for (size_t i = 0; i < active.size(); ++i) {
      if (active[i]->name == name) return i;
    }
    return std::nullopt;
  };
  for (size_t i = 0; i < active.size(); ++i) {
    for (const std::string& dep : active[i]->after) {
      if (find_delta(dep) == nullptr) {
        diags.error("delta-order",
                    "delta '" + active[i]->name + "' is declared after unknown "
                    "delta '" + dep + "'",
                    active[i]->location);
        return std::nullopt;
      }
      // `after` edges to inactive deltas impose no constraint (DOP
      // semantics: the order is over the *activated* subset).
      if (auto j = index_of(dep)) {
        successors[*j].push_back(i);
        ++indegree[i];
      }
    }
  }

  std::vector<const DeltaModule*> order;
  std::vector<bool> emitted(active.size(), false);
  for (size_t step = 0; step < active.size(); ++step) {
    size_t pick = active.size();
    for (size_t i = 0; i < active.size(); ++i) {
      if (!emitted[i] && indegree[i] == 0) {
        pick = i;
        break;
      }
    }
    if (pick == active.size()) {
      diags.error("delta-order",
                  "cycle in delta 'after' constraints among active deltas");
      return std::nullopt;
    }
    emitted[pick] = true;
    order.push_back(active[pick]);
    for (size_t s : successors[pick]) --indegree[s];
  }
  return order;
}

std::unique_ptr<dts::Tree> ProductLine::derive(
    const std::set<std::string>& selected_features,
    support::DiagnosticEngine& diags) const {
  auto order = application_order(selected_features, diags);
  if (!order) return nullptr;
  auto tree = core_->clone();
  std::vector<const DeltaModule*> applied;
  std::vector<DeltaEffects> effects;
  bool ok = true;
  for (const DeltaModule* d : *order) {
    applied.push_back(d);
    effects.emplace_back();
    if (!apply_delta(*tree, *d, diags, &effects.back())) {
      ok = false;
      break;
    }
  }
  // Order-sensitivity audit over the applied prefix: two unordered deltas
  // racing on the same path mean the declaration-order tiebreak, not the
  // author, picked this product's content. Warn deterministically (the lift
  // engine emits the same diagnostic for every co-activatable pair).
  for (const AmbiguousPair& p : find_unordered_conflicts(applied, effects)) {
    diags.warning("delta-order",
                  "deltas '" + p.a + "' and '" + p.b + "' " + p.detail +
                      " but neither is ordered 'after' the other; "
                      "declaration order decides the outcome");
  }
  return ok ? std::move(tree) : nullptr;
}

}  // namespace llhsc::delta
