// Propositional formula layer. Formulas are hash-consed into a FormulaArena:
// structurally identical subterms share one node, so feature-model encodings
// (paper §IV-A) and schema axioms (§IV-B) stay compact, and Tseitin CNF
// conversion introduces one auxiliary SAT variable per distinct gate.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace llhsc::logic {

enum class Op : uint8_t {
  kTrue,
  kFalse,
  kVar,
  kBvAtom,   // bit-vector predicate leaf (see BvAtom)
  kNot,
  kAnd,
  kOr,
  kXor,      // n-ary parity for n>=2; binary in practice
  kImplies,  // binary
  kIff,      // binary
};

/// Bit-vector predicate kinds referenced by kBvAtom leaves. The operand ids
/// index into the companion BvArena. Keeping predicates symbolic (instead of
/// eagerly bit-blasting) lets the Z3 backend use native bit-vector theory
/// while the builtin backend blasts on demand.
enum class BvPred : uint8_t { kEq, kUlt, kUle, kUaddOverflow };

struct BvAtom {
  BvPred pred;
  uint32_t lhs_term;  // BvTerm id
  uint32_t rhs_term;  // BvTerm id
  friend bool operator==(const BvAtom&, const BvAtom&) = default;
};

/// Hash of a BvAtom, for maps keyed by atom structure.
struct BvAtomHash {
  size_t operator()(const BvAtom& a) const noexcept {
    return std::hash<uint64_t>{}(
        (uint64_t{a.lhs_term} << 32 | a.rhs_term) * 31 +
        static_cast<uint64_t>(a.pred));
  }
};

/// Opaque handle into a FormulaArena. Value-semantic and cheap to copy.
class Formula {
 public:
  Formula() = default;
  [[nodiscard]] uint32_t id() const { return id_; }
  [[nodiscard]] bool valid() const { return id_ != UINT32_MAX; }
  friend bool operator==(Formula a, Formula b) { return a.id_ == b.id_; }
  friend bool operator!=(Formula a, Formula b) { return a.id_ != b.id_; }

 private:
  friend class FormulaArena;
  explicit Formula(uint32_t id) : id_(id) {}
  uint32_t id_ = UINT32_MAX;
};

/// A named Boolean variable. Arena-scoped dense index.
struct BoolVar {
  uint32_t index = UINT32_MAX;
  friend bool operator==(const BoolVar&, const BoolVar&) = default;
};

class FormulaArena {
 public:
  FormulaArena();

  // -- leaf construction --
  [[nodiscard]] Formula make_true() const { return true_; }
  [[nodiscard]] Formula make_false() const { return false_; }
  BoolVar new_bool_var(std::string name);
  [[nodiscard]] Formula var(BoolVar v);
  [[nodiscard]] const std::string& var_name(BoolVar v) const;
  [[nodiscard]] uint32_t num_bool_vars() const {
    return static_cast<uint32_t>(var_names_.size());
  }

  // -- connectives (all perform local simplification) --
  [[nodiscard]] Formula mk_not(Formula f);
  [[nodiscard]] Formula mk_and(Formula a, Formula b);
  [[nodiscard]] Formula mk_or(Formula a, Formula b);
  [[nodiscard]] Formula mk_xor(Formula a, Formula b);
  [[nodiscard]] Formula mk_implies(Formula a, Formula b);
  [[nodiscard]] Formula mk_iff(Formula a, Formula b);
  [[nodiscard]] Formula mk_ite(Formula c, Formula t, Formula e);
  [[nodiscard]] Formula mk_and(std::span<const Formula> fs);
  [[nodiscard]] Formula mk_or(std::span<const Formula> fs);
  /// Exactly-one over fs. Dispatches on arity: pairwise for small groups,
  /// sequential-counter (linear, with auxiliary variables) beyond
  /// kAtMostOnePairwiseLimit.
  [[nodiscard]] Formula mk_exactly_one(std::span<const Formula> fs);
  [[nodiscard]] Formula mk_at_most_one(std::span<const Formula> fs);
  /// The quadratic pairwise encoding, regardless of arity.
  [[nodiscard]] Formula mk_at_most_one_pairwise(std::span<const Formula> fs);
  /// Sinz's sequential-counter encoding: O(n) clauses via n-1 auxiliary
  /// "prefix contains a true" variables. Equisatisfiable and — because the
  /// auxiliaries are functionally defined — model-count preserving over the
  /// original variables.
  [[nodiscard]] Formula mk_at_most_one_sequential(std::span<const Formula> fs);

  /// Groups up to this size use the pairwise at-most-one encoding.
  static constexpr size_t kAtMostOnePairwiseLimit = 8;

  /// Interns a bit-vector predicate leaf (used by BvArena).
  [[nodiscard]] Formula mk_bv_atom(BvPred pred, uint32_t lhs_term,
                                   uint32_t rhs_term);

  // -- inspection --
  [[nodiscard]] Op op(Formula f) const;
  [[nodiscard]] BoolVar var_of(Formula f) const;
  [[nodiscard]] const BvAtom& bv_atom(Formula f) const;
  [[nodiscard]] std::span<const Formula> operands(Formula f) const;
  [[nodiscard]] size_t size() const { return nodes_.size(); }

  /// Evaluates under a full assignment (indexed by BoolVar::index).
  /// `atom_eval`, when provided, evaluates kBvAtom leaves (the BvArena
  /// supplies one); without it, atoms evaluate to false.
  using AtomEvaluator =
      std::function<bool(const BvAtom&, const std::vector<bool>&)>;
  [[nodiscard]] bool evaluate(Formula f, const std::vector<bool>& assignment,
                              const AtomEvaluator& atom_eval = {}) const;

  /// Debug rendering (s-expression style).
  [[nodiscard]] std::string to_string(Formula f) const;

 private:
  struct Node {
    Op op;
    uint32_t var = UINT32_MAX;       // for kVar
    uint32_t operands_begin = 0;     // into operand_pool_
    uint32_t operands_count = 0;
  };

  Formula intern(Op op, uint32_t var, std::span<const Formula> operands);
  [[nodiscard]] bool same_node(uint32_t id, Op op, uint32_t var,
                               std::span<const Formula> operands) const;
  void grow_index();

  std::vector<Node> nodes_;
  std::vector<Formula> operand_pool_;
  /// Hash-consing index: node ids in an open-addressing table with linear
  /// probing, at most half full, probed from the node's structural hash.
  /// kEmptySlot marks a free slot. Ids are assigned in creation order.
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  std::vector<uint32_t> index_;
  std::vector<std::string> var_names_;
  std::vector<BvAtom> atoms_;
  std::unordered_map<BvAtom, uint32_t, BvAtomHash> atom_ids_;  // -> atoms_
  Formula true_;
  Formula false_;
  uint32_t vars_created_ = 0;  // uniquifies auxiliary encoding variables
};

}  // namespace llhsc::logic
