// Order-sensitivity analysis over recorded delta footprints (§III-B's strict
// partial order, audited). Two deltas conflict when applying them in
// different orders can yield different trees or different failures:
//
//   1. both write the same (path, property) — last writer wins;
//   2. both create the same node — the second application errors, the first
//      one's content survives;
//   3. one removes a subtree the other touches — remove-first fails the
//      toucher, touch-first silently loses the change;
//   4. one targets a node the other creates — target-first fails to resolve.
//
// A direct `after` edge between the two fixes the order and silences the
// pair. Anything subtler (transitive ordering through a third delta) is
// deliberately NOT honoured: `after` edges to inactive deltas impose no
// constraint, so a chain through a delta that another configuration
// deactivates gives no stable order across the family — exactly the
// situation the diagnostic exists to surface.
#include <algorithm>

#include "delta/delta.hpp"

namespace llhsc::delta {

namespace {

bool touches_subtree(const DeltaEffects& fx, const std::string& root) {
  auto hit = [&](const std::string& p) { return dts::within(p, root); };
  return std::any_of(fx.targets.begin(), fx.targets.end(), hit) ||
         std::any_of(fx.creates.begin(), fx.creates.end(), hit) ||
         std::any_of(fx.removes.begin(), fx.removes.end(), hit) ||
         std::any_of(fx.writes.begin(), fx.writes.end(),
                     [&](const auto& w) { return dts::within(w.first, root); });
}

bool has_direct_edge(const DeltaModule& a, const DeltaModule& b) {
  auto names = [](const DeltaModule& d, const std::string& other) {
    return std::find(d.after.begin(), d.after.end(), other) != d.after.end();
  };
  return names(a, b.name) || names(b, a.name);
}

/// First matching conflict between two footprints, or empty.
std::string conflict_detail(const DeltaEffects& fa, const DeltaEffects& fb) {
  for (const auto& wa : fa.writes) {
    for (const auto& wb : fb.writes) {
      if (wa == wb) {
        return "both write property '" + wa.second + "' of " + wa.first;
      }
    }
  }
  for (const std::string& ca : fa.creates) {
    for (const std::string& cb : fb.creates) {
      if (ca == cb) return "both create node " + ca;
    }
  }
  for (const std::string& r : fa.removes) {
    if (touches_subtree(fb, r)) {
      return "race on node " + r + " which '" + fa.delta + "' removes";
    }
  }
  for (const std::string& r : fb.removes) {
    if (touches_subtree(fa, r)) {
      return "race on node " + r + " which '" + fb.delta + "' removes";
    }
  }
  for (const std::string& c : fa.creates) {
    for (const std::string& t : fb.targets) {
      if (dts::within(t, c)) {
        return "'" + fb.delta + "' targets node " + t + " created by '" +
               fa.delta + "'";
      }
    }
  }
  for (const std::string& c : fb.creates) {
    for (const std::string& t : fa.targets) {
      if (dts::within(t, c)) {
        return "'" + fa.delta + "' targets node " + t + " created by '" +
               fb.delta + "'";
      }
    }
  }
  return {};
}

}  // namespace

std::vector<AmbiguousPair> find_unordered_conflicts(
    const std::vector<const DeltaModule*>& order,
    const std::vector<DeltaEffects>& effects) {
  std::vector<AmbiguousPair> out;
  const size_t n = std::min(order.size(), effects.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (has_direct_edge(*order[i], *order[j])) continue;
      std::string detail = conflict_detail(effects[i], effects[j]);
      if (detail.empty()) continue;
      out.push_back({order[i]->name, order[j]->name, std::move(detail)});
    }
  }
  return out;
}

}  // namespace llhsc::delta
