// Delta-oriented programming (DOP) for DTS product lines — paper §II-B/§III.
// A ProductLine is a core DTS plus delta modules; each delta carries a
// `when` activation condition (propositional over feature names), `after`
// ordering constraints, and a list of operations:
//
//   adds binding <target> { fragment }   -- new children/properties under an
//                                           existing node (error if a child
//                                           already exists)
//   modifies <target> { fragment }       -- merge into an existing node
//                                           (properties override, children
//                                           merge; dtc semantics)
//   removes <target>                     -- delete a node
//   removes property <target> <name>     -- delete one property
//
// <target> is a node path ("/", "/cpus/cpu@0") or a unique node name
// ("memory@40000000", base names allowed when unambiguous).
//
// Application stamps provenance: every node/property a delta creates or
// overwrites records the delta name, so checker findings trace back to the
// culpable delta (§III-B).
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dts/tree.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::delta {

/// Propositional activation condition over feature names.
class WhenExpr {
 public:
  enum class Kind : uint8_t { kTrue, kFeature, kNot, kAnd, kOr };

  static WhenExpr always();
  static WhenExpr feature(std::string name);
  static WhenExpr negate(WhenExpr e);
  static WhenExpr conj(WhenExpr a, WhenExpr b);
  static WhenExpr disj(WhenExpr a, WhenExpr b);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& feature_name() const { return name_; }
  [[nodiscard]] const WhenExpr& lhs() const { return children_.at(0); }
  [[nodiscard]] const WhenExpr& rhs() const { return children_.at(1); }

  /// Evaluates against the set of selected feature names.
  [[nodiscard]] bool evaluate(const std::set<std::string>& selected) const;
  /// All feature names referenced.
  void collect_features(std::set<std::string>& out) const;
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_ = Kind::kTrue;
  std::string name_;
  std::vector<WhenExpr> children_;
};

enum class OpKind : uint8_t { kAdds, kModifies, kRemovesNode, kRemovesProperty };

[[nodiscard]] std::string_view to_string(OpKind k);

struct Operation {
  OpKind kind = OpKind::kModifies;
  std::string target;               // node path or unique name
  std::string property_name;        // kRemovesProperty
  std::unique_ptr<dts::Node> body;  // kAdds / kModifies fragment
  support::SourceLocation location;

  Operation() = default;
  Operation(const Operation& other);
  Operation& operator=(const Operation& other);
  Operation(Operation&&) = default;
  Operation& operator=(Operation&&) = default;
};

struct DeltaModule {
  std::string name;
  WhenExpr when = WhenExpr::always();
  std::vector<std::string> after;
  std::vector<Operation> operations;
  support::SourceLocation location;
};

/// Footprint of one applied delta, recorded during application when a
/// recorder is supplied: which (path, property) pairs it wrote or removed,
/// which subtree roots it created or removed, and where its operation
/// targets resolved. find_unordered_conflicts turns two footprints into an
/// order-sensitivity verdict; the lift engine (src/lift) reuses the same
/// data to scope presence conditions.
struct DeltaEffects {
  std::string delta;  // module name
  /// (node path, property name) pairs written or removed.
  std::vector<std::pair<std::string, std::string>> writes;
  /// Roots of subtrees this delta created (nested content is implied).
  std::vector<std::string> creates;
  /// Roots of subtrees this delta removed.
  std::vector<std::string> removes;
  /// Resolved operation target paths (successful resolutions only).
  std::vector<std::string> targets;
  /// True when any operation failed (missing target, add collision, ...).
  bool failed = false;
};

/// One order-sensitive, unordered delta pair: applying `a` and `b` in
/// different orders yields different trees (or different failures), yet no
/// direct `after` edge connects them — so the declaration-order tiebreak,
/// not the author, decides the outcome.
struct AmbiguousPair {
  std::string a;       // earlier delta in the analysed order
  std::string b;       // later delta
  std::string detail;  // what the two deltas race on
};

/// Detects order-sensitive unordered pairs among `order` (with matching
/// `effects`, as recorded by apply_delta): write-write on the same
/// (path, property), creation of the same node, a removal racing any touch
/// of the removed subtree, and an operation targeting a node another delta
/// creates. Pairs connected by a direct `after` edge are ordered and
/// skipped. Deterministic: pairs come out in (i, j) order of `order`, one
/// entry per pair (first matching rule wins).
[[nodiscard]] std::vector<AmbiguousPair> find_unordered_conflicts(
    const std::vector<const DeltaModule*>& order,
    const std::vector<DeltaEffects>& effects);

/// Core DTS + deltas. Both are immutable and shared: derive() and the lift
/// engine clone the core per product, so a product line can alias trees and
/// modules its owner already caches (the daemon's artifact store).
class ProductLine {
 public:
  ProductLine(std::shared_ptr<const dts::Tree> core,
              std::shared_ptr<const std::vector<DeltaModule>> deltas);
  /// Takes sole ownership of a freshly built core and module list.
  ProductLine(std::unique_ptr<dts::Tree> core, std::vector<DeltaModule> deltas);

  [[nodiscard]] const dts::Tree& core() const { return *core_; }
  [[nodiscard]] const std::vector<DeltaModule>& deltas() const { return *deltas_; }
  [[nodiscard]] const DeltaModule* find_delta(std::string_view name) const;

  /// Deltas whose `when` holds under the selection, in declaration order.
  [[nodiscard]] std::vector<const DeltaModule*> active_deltas(
      const std::set<std::string>& selected_features) const;

  /// Linearises an explicit subset of this line's deltas respecting `after`
  /// (declaration order breaks ties; edges to deltas outside `subset` impose
  /// no constraint — DOP semantics). Reports cycles and unknown `after`
  /// targets; nullopt on error. The lift engine orders per-pattern delta
  /// subsets through this without synthesising a feature selection.
  [[nodiscard]] std::optional<std::vector<const DeltaModule*>> linearize(
      const std::vector<const DeltaModule*>& subset,
      support::DiagnosticEngine& diags) const;

  /// Linearises active deltas respecting `after` (declaration order breaks
  /// ties). Reports cycles and unknown `after` targets; nullopt on error.
  [[nodiscard]] std::optional<std::vector<const DeltaModule*>> application_order(
      const std::set<std::string>& selected_features,
      support::DiagnosticEngine& diags) const;

  /// Applies the ordered deltas to a clone of the core. Returns nullptr when
  /// activation/ordering/application failed (details in diags). Unordered
  /// order-sensitive delta pairs among the applied set are reported as
  /// "delta-order" warnings (see find_unordered_conflicts).
  [[nodiscard]] std::unique_ptr<dts::Tree> derive(
      const std::set<std::string>& selected_features,
      support::DiagnosticEngine& diags) const;

 private:
  std::shared_ptr<const dts::Tree> core_;
  std::shared_ptr<const std::vector<DeltaModule>> deltas_;
};

/// Applies one delta to a tree in place. Used by derive() and directly by
/// tests. Returns false on failed operations (missing targets, add
/// collisions); diagnostics name the delta. When `effects` is non-null the
/// delta's footprint is recorded into it (see DeltaEffects).
bool apply_delta(dts::Tree& tree, const DeltaModule& delta,
                 support::DiagnosticEngine& diags,
                 DeltaEffects* effects = nullptr);

/// All nodes in `tree` matching a delta operation target: the single node at
/// an absolute path, or every node whose name or base name equals a bare
/// name. apply_delta resolves through this (and fails on multiple matches);
/// the lift engine uses the candidate list to detect resolutions that would
/// be ambiguous somewhere in the family.
[[nodiscard]] std::vector<dts::Node*> resolve_target_candidates(
    dts::Tree& tree, const std::string& target);

/// Parses the delta-module language of paper Listing 4. Returns the modules
/// in declaration order; parse errors are reported and the affected module
/// skipped.
[[nodiscard]] std::vector<DeltaModule> parse_deltas(
    std::string_view source, std::string filename,
    support::DiagnosticEngine& diags);

}  // namespace llhsc::delta
