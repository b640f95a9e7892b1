// The lifted check engine (docs/lifting.md). Pipeline:
//
//   1. Union tree: apply every delta once, tolerantly (removes recorded but
//      not executed, add collisions merge) — a superset of every product
//      tree, used to resolve targets and compute footprints.
//   2. Components: union-find over deltas, joined when their footprints
//      touch intersecting parts of the tree. Footprints include the cells
//      environment (#address-cells/#size-cells/ranges influence a whole
//      subtree's reg interpretation) and the interrupt/clock environments
//      (pseudo-paths "<irq>"/"<clock>"), so any two deltas that can affect
//      the same obligation land in the same component.
//   3. Patterns: per component, the feature-reachable activation patterns
//      by projected all-SAT over the activation literals a_d, with the
//      feature model asserted once and a_d <-> when_d(features).
//   4. Slices: per (component, pattern), the component's active deltas
//      applied to a core clone with the real (strict) apply — application
//      failures become derivation-failure classes, successes are mined for
//      regions/claims restricted to the component's own paths.
//   5. Obligations: zero-size/wrap through the shared region screen,
//      region pairs (sweep-line-prefiltered formula-(7) queries) and
//      interrupt/clock pairs (bucketed equality queries) through the one
//      obligation layer, smt::QueryPlanner::check, on the one incremental
//      solver — the presence condition is the variant's activation literals
//      (+ no-derivation-failure).
//   6. Expansion: each finding's violating configurations by all-SAT over
//      the condition's own features, capped at max_configs.
#include "lift/lift.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checkers/interval_baseline.hpp"
#include "checkers/semantic.hpp"
#include "feature/analysis.hpp"
#include "obs/obs.hpp"
#include "smt/query_plan.hpp"
#include "support/strings.hpp"

namespace llhsc::lift {

namespace {

using checkers::Finding;
using checkers::FindingKind;
using checkers::FindingSeverity;
using checkers::Findings;
using checkers::MemRegion;

constexpr const char* kIrqEnv = "<irq>";
constexpr const char* kClockEnv = "<clock>";

std::string path_join(const std::string& parent, std::string_view name) {
  return parent == "/" ? "/" + std::string(name)
                       : parent + "/" + std::string(name);
}

/// True when `path` is `root` or inside its subtree.
bool within(const std::string& path, const std::string& root) {
  if (root == "/") return !path.empty() && path[0] == '/';
  if (path.size() < root.size()) return false;
  if (path.compare(0, root.size(), root) != 0) return false;
  return path.size() == root.size() || path[root.size()] == '/';
}

/// One footprint element: an exact node path, a subtree root (prefix), or a
/// pseudo-path environment marker ("<irq>" / "<clock>").
struct CoverItem {
  std::string path;
  bool prefix = false;
};

struct Footprint {
  std::vector<CoverItem> items;

  void add_exact(const std::string& path) { items.push_back({path, false}); }
  void add_prefix(const std::string& path) { items.push_back({path, true}); }
};

bool items_intersect(const CoverItem& a, const CoverItem& b) {
  if (a.prefix && b.prefix) {
    return within(a.path, b.path) || within(b.path, a.path);
  }
  if (a.prefix) return within(b.path, a.path);
  if (b.prefix) return within(a.path, b.path);
  return a.path == b.path;
}

bool footprints_intersect(const Footprint& a, const Footprint& b) {
  for (const CoverItem& ia : a.items) {
    for (const CoverItem& ib : b.items) {
      if (items_intersect(ia, ib)) return true;
    }
  }
  return false;
}

/// True when any item of `items` covers the node path `path`.
bool covers(const std::vector<CoverItem>& items, const std::string& path) {
  for (const CoverItem& it : items) {
    if (it.prefix ? within(path, it.path) : it.path == path) return true;
  }
  return false;
}

bool has_env(const std::vector<CoverItem>& items, const char* env) {
  for (const CoverItem& it : items) {
    if (!it.prefix && it.path == env) return true;
  }
  return false;
}

bool is_cells_prop(std::string_view p) {
  return p == "#address-cells" || p == "#size-cells" || p == "ranges";
}
bool is_irq_prop(std::string_view p) {
  return p == "phandle" || p == "#interrupt-cells" ||
         p == "interrupt-parent" || p == "interrupts";
}
bool is_clock_prop(std::string_view p) {
  return p == "phandle" || p == "#clock-cells" || p == "assigned-clocks";
}

struct UnionFind {
  std::vector<size_t> parent;
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), size_t{0});
  }
  size_t find(size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void join(size_t a, size_t b) { parent[find(a)] = find(b); }
};

/// Records one written property into the footprint: the node itself, plus
/// the environment couplings the property participates in.
void note_property(Footprint& fp, const std::string& path,
                   std::string_view prop) {
  fp.add_exact(path);
  if (is_cells_prop(prop)) fp.add_prefix(path);
  if (is_irq_prop(prop)) fp.add_exact(kIrqEnv);
  if (is_clock_prop(prop)) fp.add_exact(kClockEnv);
}

/// Environment markers for every property found anywhere in `node`'s
/// subtree (used for created fragments and removed subtrees, whose nested
/// content is covered path-wise by the subtree root already).
void note_subtree_env(Footprint& fp, const dts::Node& node) {
  for (const dts::Property& p : node.properties()) {
    if (is_irq_prop(p.name)) fp.add_exact(kIrqEnv);
    if (is_clock_prop(p.name)) fp.add_exact(kClockEnv);
  }
  for (const auto& child : node.children()) note_subtree_env(fp, *child);
}

/// Footprint of merging `fragment` into the union node at `path`, recorded
/// against what the union tree holds *now* (so creations are relative to
/// everything any earlier delta may have built).
void record_merge(const dts::Node* target, const dts::Node& fragment,
                  const std::string& path, Footprint& fp) {
  for (const dts::Property& p : fragment.properties()) {
    note_property(fp, path, p.name);
  }
  for (const auto& child : fragment.children()) {
    const dts::Node* existing =
        target != nullptr ? target->find_child(child->name()) : nullptr;
    const std::string child_path = path_join(path, child->name());
    if (existing == nullptr) {
      fp.add_prefix(child_path);
      note_subtree_env(fp, *child);
    } else {
      record_merge(existing, *child, child_path, fp);
    }
  }
}

std::string render_literal(const DeltaLiteral& l) {
  return l.positive ? l.delta : "!" + l.delta;
}

std::string render_condition(const std::vector<DeltaLiteral>& cond) {
  std::string out;
  for (const DeltaLiteral& l : cond) {
    if (!out.empty()) out += " && ";
    out += render_literal(l);
  }
  return out;
}

/// A slice's extraction output under one activation condition.
struct Variant {
  size_t component = SIZE_MAX;  // SIZE_MAX = the shared core variant
  std::vector<DeltaLiteral> cond;
  std::vector<logic::Formula> cond_formulas;
  std::vector<MemRegion> regions;
  Findings extraction_findings;
};

struct ClaimVariant {
  std::vector<DeltaLiteral> cond;
  std::vector<logic::Formula> cond_formulas;
  std::vector<checkers::Claim> irq;
  std::vector<checkers::Claim> clock;
};

struct Expansion {
  bool reachable = false;
  bool capped = false;
  std::string summary;
  std::set<std::string> sample;
};

class Engine {
 public:
  Engine(const delta::ProductLine& line, const feature::FeatureModel& model,
         const LiftOptions& opts, support::DiagnosticEngine& diags)
      : line_(line),
        model_(model),
        opts_(opts),
        diags_(diags),
        solver_(opts.backend),
        planner_(solver_, "") {}

  LiftedResult run() {
    obs::Span span("lift.check_family", "lift");
    if (!build_union()) return std::move(result_);
    build_components();
    encode_family();
    if (solver_.check() != smt::CheckResult::kUnsat) {
      if (!enumerate_patterns()) return std::move(result_);
      build_slices();
      assert_fail_classes();
      discharge_obligations();
      check_exclusivity();
    }
    expand_findings();
    result_.solver_checks = solver_.stats().checks;
    result_.ok = ok_;
    sort_findings();
    return std::move(result_);
  }

 private:
  // -- Step 1: union tree + footprints ------------------------------------

  bool build_union() {
    obs::Span span("lift.union", "lift");
    const auto& deltas = line_.deltas();
    footprints_.resize(deltas.size());
    std::vector<const delta::DeltaModule*> all;
    all.reserve(deltas.size());
    for (const delta::DeltaModule& d : deltas) all.push_back(&d);
    auto order = line_.linearize(all, diags_);
    if (!order) {
      ok_ = false;
      return false;
    }
    union_tree_ = line_.core().clone();
    for (const delta::DeltaModule* d : *order) {
      const size_t idx = delta_index(d->name);
      if (!union_apply(*d, footprints_[idx])) return false;
    }
    return true;
  }

  size_t delta_index(const std::string& name) const {
    const auto& deltas = line_.deltas();
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (deltas[i].name == name) return i;
    }
    return SIZE_MAX;
  }

  /// Tolerant application into the union tree: adds/modifies merge (no
  /// collision failures), removals are recorded but not executed, and
  /// unresolvable targets are skipped (the strict slice application decides
  /// what that means product by product). A bare-name target matching more
  /// than one union node is refused outright: its resolution could differ
  /// across products, and the lifted encoding has no way to say so.
  bool union_apply(const delta::DeltaModule& d, Footprint& fp) {
    for (const delta::Operation& op : d.operations) {
      std::vector<dts::Node*> candidates =
          delta::resolve_target_candidates(*union_tree_, op.target);
      if (!op.target.empty() && op.target[0] != '/' && candidates.size() > 1) {
        diags_.error("lift",
                     "delta '" + d.name + "' targets '" + op.target +
                         "' which is ambiguous in the family union (" +
                         std::to_string(candidates.size()) +
                         " matches); lifted checking requires unambiguous "
                         "targets — use an absolute path",
                     op.location);
        ok_ = false;
        return false;
      }
      if (candidates.empty()) continue;
      dts::Node* target = candidates.front();
      const std::string path = union_tree_->path_of(*target);
      switch (op.kind) {
        case delta::OpKind::kAdds:
        case delta::OpKind::kModifies: {
          if (!op.body) break;
          auto fragment = op.body->clone();
          record_merge(target, *fragment, path, fp);
          fragment->set_name(target->name());
          target->merge_from(std::move(*fragment));
          break;
        }
        case delta::OpKind::kRemovesNode:
          fp.add_prefix(path);
          note_subtree_env(fp, *target);
          break;
        case delta::OpKind::kRemovesProperty:
          note_property(fp, path, op.property_name);
          break;
      }
    }
    return true;
  }

  // -- Step 2: components -------------------------------------------------

  void build_components() {
    const size_t n = footprints_.size();
    UnionFind uf(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (footprints_intersect(footprints_[i], footprints_[j])) {
          uf.join(i, j);
        }
      }
    }
    std::map<size_t, size_t> root_to_comp;
    for (size_t i = 0; i < n; ++i) {
      const size_t root = uf.find(i);
      auto [it, fresh] = root_to_comp.try_emplace(root, components_.size());
      if (fresh) components_.emplace_back();
      components_[it->second].push_back(i);
      auto& items = component_items_.emplace(it->second, std::vector<CoverItem>{})
                        .first->second;
      items.insert(items.end(), footprints_[i].items.begin(),
                   footprints_[i].items.end());
    }
    result_.components = components_.size();
  }

  /// Component whose footprint covers `path`, or SIZE_MAX (core-owned).
  /// Coverage is unique by construction: two components covering one path
  /// would have intersecting footprints and have been joined.
  size_t owner_of(const std::string& path) const {
    for (size_t c = 0; c < components_.size(); ++c) {
      if (covers(component_items_.at(c), path)) return c;
    }
    return SIZE_MAX;
  }

  // -- Step 3: feature encoding + activation patterns ---------------------

  void encode_family() {
    auto& fa = solver_.formulas();
    enc_ = feature::encode(model_, solver_);
    const auto& deltas = line_.deltas();
    activation_.reserve(deltas.size());
    for (const delta::DeltaModule& d : deltas) {
      logic::Formula a = solver_.bool_var("delta!" + d.name);
      solver_.add(fa.mk_iff(a, when_formula(d.when)));
      activation_.push_back(a);
    }
  }

  logic::Formula when_formula(const delta::WhenExpr& w) {
    auto& fa = solver_.formulas();
    switch (w.kind()) {
      case delta::WhenExpr::Kind::kTrue:
        return fa.make_true();
      case delta::WhenExpr::Kind::kFeature: {
        // An unknown feature name can never be selected — evaluate() treats
        // it as false, and so does the encoding.
        auto id = model_.find(w.feature_name());
        return id ? enc_.variables[id->index] : fa.make_false();
      }
      case delta::WhenExpr::Kind::kNot:
        return fa.mk_not(when_formula(w.lhs()));
      case delta::WhenExpr::Kind::kAnd:
        return fa.mk_and(when_formula(w.lhs()), when_formula(w.rhs()));
      case delta::WhenExpr::Kind::kOr:
        return fa.mk_or(when_formula(w.lhs()), when_formula(w.rhs()));
    }
    return fa.make_true();
  }

  /// All feature-reachable activation patterns of every component, by
  /// projected all-SAT on the component's activation literals under a
  /// retirable guard. Returns false (and reports) when a component blows
  /// the pattern cap.
  bool enumerate_patterns() {
    obs::Span span("lift.patterns", "lift");
    auto& fa = solver_.formulas();
    patterns_.resize(components_.size());
    for (size_t c = 0; c < components_.size(); ++c) {
      logic::Formula guard =
          solver_.bool_var("lift!pat!" + std::to_string(c));
      std::vector<logic::Formula> assume{guard};
      while (true) {
        if (solver_.check_assuming(assume) != smt::CheckResult::kSat) break;
        if (patterns_[c].size() >= opts_.max_patterns) {
          Finding f;
          f.kind = FindingKind::kEnumerationCapped;
          f.subject = "component " + std::to_string(c);
          f.message = "activation-pattern enumeration exceeded the cap of " +
                      std::to_string(opts_.max_patterns) +
                      " patterns; the lifted result is incomplete";
          result_.findings.push_back({std::move(f), {}, "", false, {}});
          ok_ = false;
          break;
        }
        std::vector<bool> pattern(components_[c].size());
        std::vector<logic::Formula> blocking;
        blocking.reserve(pattern.size());
        for (size_t k = 0; k < components_[c].size(); ++k) {
          const logic::Formula a = activation_[components_[c][k]];
          pattern[k] = solver_.model_bool(a);
          blocking.push_back(pattern[k] ? fa.mk_not(a) : a);
        }
        patterns_[c].push_back(std::move(pattern));
        solver_.add(fa.mk_implies(guard, fa.mk_or(blocking)));
      }
      solver_.retire(guard);
      result_.patterns += patterns_[c].size();
      if (!ok_) return false;
    }
    return true;
  }

  std::vector<DeltaLiteral> pattern_condition(size_t c,
                                              const std::vector<bool>& pat) {
    std::vector<DeltaLiteral> cond;
    cond.reserve(pat.size());
    for (size_t k = 0; k < pat.size(); ++k) {
      cond.push_back({line_.deltas()[components_[c][k]].name, pat[k]});
    }
    return cond;
  }

  std::vector<logic::Formula> condition_formulas(
      size_t c, const std::vector<bool>& pat) {
    auto& fa = solver_.formulas();
    std::vector<logic::Formula> out;
    out.reserve(pat.size());
    for (size_t k = 0; k < pat.size(); ++k) {
      const logic::Formula a = activation_[components_[c][k]];
      out.push_back(pat[k] ? a : fa.mk_not(a));
    }
    return out;
  }

  // -- Step 4: slices -----------------------------------------------------

  void build_slices() {
    obs::Span span("lift.slices", "lift");
    const bool irq_lifted = irq_component() != SIZE_MAX;
    const bool clock_lifted = clock_component() != SIZE_MAX;

    // The shared core variant: everything no component can touch is
    // constant across the family and extracted exactly once.
    {
      Variant core;
      auto filter = [&](const std::string& path) {
        return owner_of(path) == SIZE_MAX;
      };
      Findings ext;
      std::vector<MemRegion> regions =
          checkers::extract_regions(line_.core(), ext);
      for (MemRegion& r : regions) {
        if (filter(r.path)) core.regions.push_back(std::move(r));
      }
      for (Finding& f : ext) {
        if (filter(f.subject)) core.extraction_findings.push_back(std::move(f));
      }
      variants_.push_back(std::move(core));
      if (opts_.check_interrupts && !irq_lifted) {
        ClaimVariant cv;
        cv.irq = checkers::collect_interrupt_claims(line_.core());
        claim_variants_.push_back(std::move(cv));
      }
      if (opts_.check_clocks && !clock_lifted) {
        if (claim_variants_.empty() || !claim_variants_.back().cond.empty()) {
          claim_variants_.push_back({});
        }
        claim_variants_.back().clock =
            checkers::collect_clock_claims(line_.core());
      }
    }

    std::set<std::pair<std::string, std::string>> warned_pairs;
    for (size_t c = 0; c < components_.size(); ++c) {
      for (const std::vector<bool>& pat : patterns_[c]) {
        build_slice(c, pat, warned_pairs);
      }
    }
  }

  void build_slice(size_t c, const std::vector<bool>& pat,
                   std::set<std::pair<std::string, std::string>>& warned) {
    ++result_.slices;
    std::vector<const delta::DeltaModule*> subset;
    for (size_t k = 0; k < pat.size(); ++k) {
      if (pat[k]) subset.push_back(&line_.deltas()[components_[c][k]]);
    }
    std::vector<DeltaLiteral> cond = pattern_condition(c, pat);
    std::vector<logic::Formula> cond_fs = condition_formulas(c, pat);

    support::DiagnosticEngine sdiags;
    auto order = line_.linearize(subset, sdiags);
    if (!order) {
      // Unreachable for a subset of an acyclic delta set; treat as a
      // derivation failure so nothing is silently skipped.
      add_fail_class(std::move(cond), "delta ordering failed",
                     support::SourceLocation{});
      return;
    }
    std::unique_ptr<dts::Tree> tree = line_.core().clone();
    std::vector<delta::DeltaEffects> effects;
    std::vector<const delta::DeltaModule*> applied;
    for (const delta::DeltaModule* d : *order) {
      delta::DeltaEffects fx;
      if (!delta::apply_delta(*tree, *d, sdiags, &fx)) {
        std::string why = "application of delta '" + d->name + "' failed";
        for (const support::Diagnostic& diag : sdiags.diagnostics()) {
          if (diag.severity == support::Severity::kError) {
            why = diag.message;
            break;
          }
        }
        add_fail_class(std::move(cond), why, d->location);
        return;
      }
      applied.push_back(d);
      effects.push_back(std::move(fx));
    }
    for (const delta::AmbiguousPair& p :
         delta::find_unordered_conflicts(applied, effects)) {
      if (warned.insert({p.a, p.b}).second) {
        diags_.warning("delta-order",
                       "deltas '" + p.a + "' and '" + p.b + "' " + p.detail +
                           " but neither is ordered 'after' the other; "
                           "declaration order decides the outcome");
      }
    }

    Variant v;
    v.component = c;
    v.cond = std::move(cond);
    v.cond_formulas = std::move(cond_fs);
    Findings ext;
    std::vector<MemRegion> regions = checkers::extract_regions(*tree, ext);
    for (MemRegion& r : regions) {
      if (owner_of(r.path) == c) v.regions.push_back(std::move(r));
    }
    for (Finding& f : ext) {
      if (owner_of(f.subject) == c) {
        v.extraction_findings.push_back(std::move(f));
      }
    }
    const bool want_irq = opts_.check_interrupts && c == irq_component();
    const bool want_clock = opts_.check_clocks && c == clock_component();
    if (want_irq || want_clock) {
      ClaimVariant cv;
      cv.cond = v.cond;
      cv.cond_formulas = v.cond_formulas;
      if (want_irq) cv.irq = checkers::collect_interrupt_claims(*tree);
      if (want_clock) cv.clock = checkers::collect_clock_claims(*tree);
      claim_variants_.push_back(std::move(cv));
    }
    variants_.push_back(std::move(v));
  }

  size_t irq_component() const { return env_component(kIrqEnv); }
  size_t clock_component() const { return env_component(kClockEnv); }
  size_t env_component(const char* env) const {
    for (size_t c = 0; c < components_.size(); ++c) {
      if (has_env(component_items_.at(c), env)) return c;
    }
    return SIZE_MAX;
  }

  void add_fail_class(std::vector<DeltaLiteral> cond, const std::string& why,
                      support::SourceLocation loc) {
    Finding f;
    f.kind = FindingKind::kDeriveFailure;
    f.subject = render_condition(cond);
    f.location = loc;
    f.message = "product derivation fails: " + why;
    result_.findings.push_back({std::move(f), cond, "", false, {}});
    derive_fail_finding_.push_back(result_.findings.size() - 1);
    result_.fail_classes.push_back(std::move(cond));
  }

  // -- Step 5: obligations ------------------------------------------------

  void assert_fail_classes() {
    auto& fa = solver_.formulas();
    for (size_t k = 0; k < result_.fail_classes.size(); ++k) {
      logic::Formula fvar =
          solver_.bool_var("lift!fail!" + std::to_string(k));
      std::vector<logic::Formula> lits;
      for (const DeltaLiteral& l : result_.fail_classes[k]) {
        const logic::Formula a = activation_[delta_index(l.delta)];
        lits.push_back(l.positive ? a : fa.mk_not(a));
      }
      solver_.add(fa.mk_iff(fvar, fa.mk_and(lits)));
      not_fail_.push_back(fa.mk_not(fvar));
    }
  }

  /// Merges two variant conditions (used for cross-component region pairs;
  /// identical conditions collapse, disjoint delta sets concatenate).
  static std::vector<DeltaLiteral> merge_conditions(
      const std::vector<DeltaLiteral>& a, const std::vector<DeltaLiteral>& b) {
    std::vector<DeltaLiteral> out = a;
    for (const DeltaLiteral& l : b) {
      bool present = false;
      for (const DeltaLiteral& e : out) {
        if (e.delta == l.delta) {
          present = true;
          break;
        }
      }
      if (!present) out.push_back(l);
    }
    return out;
  }

  void discharge_obligations() {
    obs::Span span("lift.obligations", "lift");
    const uint32_t width = opts_.address_bits;

    // Every variant's screened regions in one masked list for the
    // sweep-line prefilter; origin[k] = (variant, region index).
    std::vector<MemRegion> shadow;
    std::vector<std::pair<size_t, size_t>> origin;
    for (size_t vi = 0; vi < variants_.size(); ++vi) {
      Variant& v = variants_[vi];
      Findings screened = std::move(v.extraction_findings);
      checkers::RegionScreen screen = checkers::screen_regions(
          v.regions, width, opts_.warn_zero_size, screened);
      for (Finding& f : screened) queue_finding(f, v.cond);
      for (size_t k = 0; k < screen.index.size(); ++k) {
        shadow.push_back(std::move(screen.masked[k]));
        origin.emplace_back(vi, screen.index[k]);
      }
    }

    // Pairs from the same component but different patterns are mutually
    // exclusive and dropped here; everything else is decided under the
    // merged presence condition of its two variants.
    for (const checkers::OverlapPair& pair :
         checkers::find_overlaps_sweepline(shadow)) {
      const auto [ia, ra] = origin[pair.first];
      const auto [ib, rb] = origin[pair.second];
      const Variant& va = variants_[ia];
      const Variant& vb = variants_[ib];
      if (ia != ib && va.component == vb.component &&
          va.component != SIZE_MAX) {
        continue;  // different patterns of one component: never co-active
      }
      const MemRegion& a = va.regions[ra];
      const MemRegion& b = vb.regions[rb];
      checkers::OverlapQuery q = checkers::build_overlap_query(
          solver_, a, b, width, "lift!ov" + std::to_string(fresh_counter_++));
      std::vector<logic::Formula> presence = va.cond_formulas;
      for (logic::Formula f : vb.cond_formulas) {
        if (std::find(presence.begin(), presence.end(), f) == presence.end()) {
          presence.push_back(f);
        }
      }
      smt::QueryPlanner::Outcome o =
          discharge(q.formulas, q.x, std::move(presence));
      if (o.result == smt::CheckResult::kSat) {
        Finding f = checkers::overlap_finding(a, b, o.witness);
        queue_finding(f, merge_conditions(va.cond, vb.cond));
      }
    }

    // Interrupt/clock uniqueness: claims only ever vary inside the one
    // component that owns the environment (every delta that can create,
    // remove, or re-interpret a claim carries the "<irq>"/"<clock>"
    // marker), so colliding pairs always live inside a single claim
    // variant, decided under that variant's condition.
    using Collision = Finding (*)(const checkers::Claim&,
                                  const checkers::Claim&);
    for (const ClaimVariant& cv : claim_variants_) {
      const std::pair<const std::vector<checkers::Claim>*, Collision> kinds[] =
          {{&cv.irq, checkers::interrupt_collision_finding},
           {&cv.clock, checkers::clock_collision_finding}};
      for (const auto& [claims, collision] : kinds) {
        checkers::ClaimQueries queries(
            solver_, *claims, "lift!cl" + std::to_string(fresh_counter_++));
        for (const auto& [i, j] : checkers::claim_pairs(*claims).candidates) {
          smt::QueryPlanner::Outcome o =
              discharge(queries.build(i, j), {}, cv.cond_formulas);
          if (o.result == smt::CheckResult::kSat) {
            Finding f = collision((*claims)[i], (*claims)[j]);
            queue_finding(f, cv.cond);
          }
        }
      }
    }
  }

  /// One lifted obligation, decided by the planner under `presence` plus
  /// the no-derivation-failure literals.
  smt::QueryPlanner::Outcome discharge(std::span<const logic::Formula> fs,
                                       logic::BvTerm witness,
                                       std::vector<logic::Formula> presence) {
    ++result_.obligations;
    obs::count("lift.obligations", "lift", 1);
    presence.insert(presence.end(), not_fail_.begin(), not_fail_.end());
    return planner_.check(fs, witness, presence);
  }

  /// The exclusivity lift: a listed exclusive feature that *every*
  /// configuration selects means the family cannot trade it away — the
  /// family-level analogue of two VMs claiming one exclusive resource.
  void check_exclusivity() {
    auto& fa = solver_.formulas();
    for (const std::string& name : opts_.exclusive_features) {
      auto id = model_.find(name);
      if (!id) continue;
      ++result_.obligations;
      std::vector<logic::Formula> assume{
          fa.mk_not(enc_.variables[id->index])};
      if (solver_.check_assuming(assume) == smt::CheckResult::kUnsat) {
        Finding f;
        f.kind = FindingKind::kExclusivityViolation;
        f.severity = FindingSeverity::kWarning;
        f.subject = name;
        f.message = "exclusive feature '" + name +
                    "' is selected in every configuration of the family";
        result_.findings.push_back({std::move(f), {}, "", false, {}});
      }
    }
  }

  void queue_finding(Finding& f, std::vector<DeltaLiteral> cond) {
    result_.findings.push_back({std::move(f), std::move(cond), "", false, {}});
    pending_expand_.push_back(result_.findings.size() - 1);
  }

  // -- Step 6: per-finding configuration expansion ------------------------

  void expand_findings() {
    obs::Span span("lift.expand", "lift");
    // Derive-failure findings expand without the not-fail exclusion (they
    // ARE the failures); check findings exclude failing configurations.
    std::vector<size_t> keep;
    std::set<size_t> drop;
    for (size_t idx : derive_fail_finding_) {
      LiftedFinding& lf = result_.findings[idx];
      Expansion e = expand(lf.condition, /*exclude_failures=*/false);
      lf.config_summary = e.summary;
      lf.config_summary_capped = e.capped;
      lf.sample_config = std::move(e.sample);
    }
    for (size_t idx : pending_expand_) {
      LiftedFinding& lf = result_.findings[idx];
      Expansion e = expand(lf.condition, /*exclude_failures=*/true);
      if (!e.reachable) {
        // No configuration both activates this pattern and survives
        // derivation: the obligation's subject never exists in a product.
        drop.insert(idx);
        continue;
      }
      lf.config_summary = e.summary;
      lf.config_summary_capped = e.capped;
      lf.sample_config = std::move(e.sample);
    }
    if (!drop.empty()) {
      std::vector<LiftedFinding> kept;
      kept.reserve(result_.findings.size() - drop.size());
      for (size_t i = 0; i < result_.findings.size(); ++i) {
        if (!drop.count(i)) kept.push_back(std::move(result_.findings[i]));
      }
      result_.findings = std::move(kept);
    }
  }

  Expansion expand(const std::vector<DeltaLiteral>& cond,
                   bool exclude_failures) {
    std::string memo_key = (exclude_failures ? "1|" : "0|");
    {
      std::vector<std::string> lits;
      for (const DeltaLiteral& l : cond) lits.push_back(render_literal(l));
      std::sort(lits.begin(), lits.end());
      for (const std::string& l : lits) memo_key += l + "|";
    }
    auto memo = expansion_memo_.find(memo_key);
    if (memo != expansion_memo_.end()) return memo->second;

    auto& fa = solver_.formulas();
    // Support: the features the condition's `when` expressions mention —
    // the summary projects onto exactly those.
    std::set<std::string> support_set;
    for (const DeltaLiteral& l : cond) {
      if (const delta::DeltaModule* d = line_.find_delta(l.delta)) {
        d->when.collect_features(support_set);
      }
    }
    std::vector<std::pair<std::string, logic::Formula>> support;
    for (const std::string& f : support_set) {
      if (auto id = model_.find(f)) {
        support.emplace_back(f, enc_.variables[id->index]);
      }
    }

    Expansion e;
    logic::Formula g =
        solver_.bool_var("lift!cfg!" + std::to_string(fresh_counter_++));
    std::vector<logic::Formula> assume{g};
    for (const DeltaLiteral& l : cond) {
      const logic::Formula a = activation_[delta_index(l.delta)];
      assume.push_back(l.positive ? a : fa.mk_not(a));
    }
    if (exclude_failures) {
      assume.insert(assume.end(), not_fail_.begin(), not_fail_.end());
    }
    std::vector<std::string> classes;
    const uint64_t cap = std::max<uint64_t>(1, opts_.max_configs);
    while (true) {
      if (solver_.check_assuming(assume) != smt::CheckResult::kSat) break;
      obs::count("lift.allsat_models", "lift", 1);
      e.reachable = true;
      if (e.sample.empty()) {
        for (uint32_t i = 0; i < model_.size(); ++i) {
          if (solver_.model_bool(enc_.variables[i])) {
            e.sample.insert(model_.feature(feature::FeatureId{i}).name);
          }
        }
      }
      if (support.empty()) {
        e.summary = "all configurations";
        break;
      }
      if (classes.size() >= cap) {
        e.capped = true;
        break;
      }
      std::string cls;
      std::vector<logic::Formula> blocking;
      blocking.reserve(support.size());
      for (const auto& [name, var] : support) {
        const bool on = solver_.model_bool(var);
        if (!cls.empty()) cls += " && ";
        cls += on ? name : "!" + name;
        blocking.push_back(on ? fa.mk_not(var) : var);
      }
      classes.push_back(std::move(cls));
      obs::count("lift.violating_configs", "lift", 1);
      solver_.add(fa.mk_implies(g, fa.mk_or(blocking)));
    }
    solver_.retire(g);
    if (e.summary.empty()) {
      std::sort(classes.begin(), classes.end());
      for (const std::string& c : classes) {
        if (!e.summary.empty()) e.summary += " || ";
        e.summary += c;
      }
      if (e.capped) e.summary += " || ...";
    }
    expansion_memo_.emplace(std::move(memo_key), e);
    return e;
  }

  void sort_findings() {
    std::stable_sort(result_.findings.begin(), result_.findings.end(),
                     [](const LiftedFinding& x, const LiftedFinding& y) {
                       const auto kx = std::make_tuple(
                           static_cast<int>(x.finding.kind), x.finding.subject,
                           x.finding.other_subject, x.finding.message,
                           render_condition(x.condition));
                       const auto ky = std::make_tuple(
                           static_cast<int>(y.finding.kind), y.finding.subject,
                           y.finding.other_subject, y.finding.message,
                           render_condition(y.condition));
                       return kx < ky;
                     });
  }

  const delta::ProductLine& line_;
  const feature::FeatureModel& model_;
  const LiftOptions& opts_;
  support::DiagnosticEngine& diags_;
  smt::Solver solver_;
  smt::QueryPlanner planner_;  // cacheless: presence literals need that
  feature::Encoding enc_;
  std::vector<logic::Formula> activation_;  // a_d per delta index
  std::unique_ptr<dts::Tree> union_tree_;
  std::vector<Footprint> footprints_;
  std::vector<std::vector<size_t>> components_;  // delta indices, sorted
  std::map<size_t, std::vector<CoverItem>> component_items_;
  std::vector<std::vector<std::vector<bool>>> patterns_;  // per component
  std::vector<Variant> variants_;
  std::vector<ClaimVariant> claim_variants_;
  std::vector<logic::Formula> not_fail_;
  std::vector<size_t> pending_expand_;
  std::vector<size_t> derive_fail_finding_;
  std::map<std::string, Expansion> expansion_memo_;
  uint64_t fresh_counter_ = 0;
  LiftedResult result_;
  bool ok_ = true;
};

}  // namespace

LiftedResult check_family(const delta::ProductLine& line,
                          const feature::FeatureModel& model,
                          const LiftOptions& opts,
                          support::DiagnosticEngine& diags) {
  return Engine(line, model, opts, diags).run();
}

checkers::Findings flatten(const LiftedResult& result) {
  checkers::Findings out;
  out.reserve(result.findings.size());
  for (const LiftedFinding& lf : result.findings) {
    checkers::Finding f = lf.finding;
    if (!lf.config_summary.empty()) {
      f.message += " [configs: " + lf.config_summary + "]";
    }
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace llhsc::lift
