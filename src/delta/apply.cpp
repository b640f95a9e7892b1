// Delta application: resolves operation targets against the tree and applies
// adds/modifies/removes with provenance stamping. Optionally records each
// delta's footprint (DeltaEffects) so derive() and the lift engine can
// reason about which deltas race on which paths.
#include "delta/delta.hpp"

namespace llhsc::delta {

namespace {

/// Resolves a target to a node: absolute paths go through Tree::find;
/// bare names search the whole tree for a unique (base-)name match.
dts::Node* resolve_target(dts::Tree& tree, const std::string& target) {
  std::vector<dts::Node*> candidates = resolve_target_candidates(tree, target);
  return candidates.size() == 1 ? candidates.front() : nullptr;
}

/// Recursively stamps a fragment with the delta's name before it enters the
/// tree, so every created node/property is traceable.
void stamp(dts::Node& node, const std::string& delta_name) {
  node.set_provenance(delta_name);
  for (dts::Property& p : node.properties()) p.provenance = delta_name;
  for (const auto& c : node.children()) stamp(*c, delta_name);
}

/// Records what merging `fragment` into `target` touches: property writes at
/// each level, plus creation of fragment children the target lacks. Nested
/// content of a created child is implied by its `creates` root.
void record_modify_effects(const dts::Node* target, const dts::Node& fragment,
                           const std::string& path, DeltaEffects& fx) {
  for (const dts::Property& p : fragment.properties()) {
    fx.writes.emplace_back(path, std::string(p.name));
  }
  for (const auto& child : fragment.children()) {
    const dts::Node* existing =
        target != nullptr ? target->find_child(child->name()) : nullptr;
    const std::string child_path = dts::path_join(path, child->name());
    if (existing == nullptr) {
      fx.creates.push_back(child_path);
    } else {
      record_modify_effects(existing, *child, child_path, fx);
    }
  }
}

/// adds: every fragment child must be new; fragment properties must be new.
bool apply_adds(dts::Node& target, dts::Node&& fragment,
                const DeltaModule& delta, const Operation& op,
                support::DiagnosticEngine& diags) {
  bool ok = true;
  for (dts::Property& p : fragment.properties()) {
    if (target.find_property(p.name) != nullptr) {
      diags.error("delta-apply",
                  "delta '" + delta.name + "' adds property '" + p.name +
                      "' which already exists in " + op.target +
                      " (use modifies)",
                  op.location);
      ok = false;
      continue;
    }
    target.set_property(std::move(p));
  }
  // Move children out of the fragment.
  std::vector<std::unique_ptr<dts::Node>> kids;
  while (!fragment.children().empty()) {
    // remove_child pops by name; take the first each round.
    const support::Atom name = fragment.children().front()->name();
    if (target.find_child(name) != nullptr) {
      diags.error("delta-apply",
                  "delta '" + delta.name + "' adds node '" + name +
                      "' which already exists in " + op.target +
                      " (use modifies)",
                  op.location);
      ok = false;
      fragment.remove_child(name);
      continue;
    }
    target.add_child(fragment.children().front()->clone());
    fragment.remove_child(name);
  }
  return ok;
}

}  // namespace

std::vector<dts::Node*> resolve_target_candidates(dts::Tree& tree,
                                                  const std::string& target) {
  std::vector<dts::Node*> out;
  if (!target.empty() && target[0] == '/') {
    if (dts::Node* n = tree.find(target)) out.push_back(n);
    return out;
  }
  tree.visit([&](const std::string&, dts::Node& n) {
    if (n.name() == target || n.base_name() == target) out.push_back(&n);
  });
  return out;
}

bool apply_delta(dts::Tree& tree, const DeltaModule& delta,
                 support::DiagnosticEngine& diags, DeltaEffects* effects) {
  bool ok = true;
  if (effects != nullptr) effects->delta = delta.name;
  for (const Operation& op : delta.operations) {
    switch (op.kind) {
      case OpKind::kAdds: {
        dts::Node* target = resolve_target(tree, op.target);
        if (target == nullptr) {
          diags.error("delta-apply",
                      "delta '" + delta.name + "' adds into unknown node '" +
                          op.target + "'",
                      op.location);
          ok = false;
          break;
        }
        auto fragment = op.body ? op.body->clone() : nullptr;
        if (!fragment) break;
        if (effects != nullptr) {
          const std::string path = tree.path_of(*target);
          effects->targets.push_back(path);
          for (const dts::Property& p : fragment->properties()) {
            effects->writes.emplace_back(path, std::string(p.name));
          }
          for (const auto& child : fragment->children()) {
            effects->creates.push_back(dts::path_join(path, child->name()));
          }
        }
        stamp(*fragment, delta.name);
        if (!apply_adds(*target, std::move(*fragment), delta, op, diags)) {
          ok = false;
        }
        break;
      }
      case OpKind::kModifies: {
        dts::Node* target = resolve_target(tree, op.target);
        if (target == nullptr) {
          diags.error("delta-apply",
                      "delta '" + delta.name + "' modifies unknown node '" +
                          op.target + "'",
                      op.location);
          ok = false;
          break;
        }
        auto fragment = op.body ? op.body->clone() : nullptr;
        if (!fragment) break;
        if (effects != nullptr) {
          const std::string path = tree.path_of(*target);
          effects->targets.push_back(path);
          record_modify_effects(target, *fragment, path, *effects);
        }
        stamp(*fragment, delta.name);
        fragment->set_name(target->name());
        // merge_from would overwrite the *target's* provenance with the
        // fragment's; that is exactly right — the delta now owns the change.
        target->merge_from(std::move(*fragment));
        break;
      }
      case OpKind::kRemovesNode: {
        dts::Node* target = resolve_target(tree, op.target);
        if (target == nullptr || target == &tree.root()) {
          diags.error("delta-apply",
                      "delta '" + delta.name + "' removes unknown node '" +
                          op.target + "'",
                      op.location);
          ok = false;
          break;
        }
        // Find the parent by path.
        std::string path = tree.path_of(*target);
        if (effects != nullptr) {
          effects->targets.push_back(path);
          effects->removes.push_back(path);
        }
        size_t slash = path.find_last_of('/');
        std::string parent_path = slash == 0 ? "/" : path.substr(0, slash);
        dts::Node* parent = tree.find(parent_path);
        if (parent == nullptr || !parent->remove_child(target->name())) {
          diags.error("delta-apply",
                      "delta '" + delta.name + "' failed to remove node '" +
                          op.target + "'",
                      op.location);
          ok = false;
        }
        break;
      }
      case OpKind::kRemovesProperty: {
        dts::Node* target = resolve_target(tree, op.target);
        if (target == nullptr) {
          diags.error("delta-apply",
                      "delta '" + delta.name +
                          "' removes property from unknown node '" + op.target +
                          "'",
                      op.location);
          ok = false;
          break;
        }
        if (effects != nullptr) {
          const std::string path = tree.path_of(*target);
          effects->targets.push_back(path);
          effects->writes.emplace_back(path, op.property_name);
        }
        if (!target->remove_property(op.property_name)) {
          diags.error("delta-apply",
                      "delta '" + delta.name + "' removes missing property '" +
                          op.property_name + "' from " + op.target,
                      op.location);
          ok = false;
        }
        break;
      }
    }
  }
  if (effects != nullptr && !ok) effects->failed = true;
  return ok;
}

}  // namespace llhsc::delta
