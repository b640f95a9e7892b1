// Bit-vector term language and bit-blaster. The paper's semantic checker
// (§IV-C) encodes memory addresses as bit-vectors which Z3 bit-blasts into
// SAT; the builtin backend does the same here: every BvTerm lowers to a
// vector of propositional formulas (LSB first) over the shared FormulaArena,
// and predicates lower to a single Formula handed to the CnfEncoder.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/formula.hpp"

namespace llhsc::logic {

enum class BvOp : uint8_t {
  kConst,
  kVar,
  kAdd,
  kSub,
  kMul,
  kAnd,
  kOr,
  kXor,
  kNot,
  kShlConst,   // shift left by immediate
  kLshrConst,  // logical shift right by immediate
  kZeroExt,
  kExtract,    // [hi:lo]
  kConcat,     // hi ++ lo
  kIte,        // cond ? a : b  (cond is a Formula)
};

/// Handle into a BvArena.
class BvTerm {
 public:
  BvTerm() = default;
  [[nodiscard]] uint32_t id() const { return id_; }
  [[nodiscard]] bool valid() const { return id_ != UINT32_MAX; }
  /// Rehydrates a handle from an id previously obtained via id() (used by
  /// backends that store term ids in atoms).
  [[nodiscard]] static BvTerm from_id(uint32_t id) { return BvTerm(id); }
  friend bool operator==(BvTerm a, BvTerm b) { return a.id_ == b.id_; }
  friend bool operator!=(BvTerm a, BvTerm b) { return a.id_ != b.id_; }

 private:
  friend class BvArena;
  explicit BvTerm(uint32_t id) : id_(id) {}
  uint32_t id_ = UINT32_MAX;
};

/// Builds and bit-blasts bit-vector terms. Owns term storage; formulas for
/// blasted bits live in the FormulaArena passed at construction.
class BvArena {
 public:
  explicit BvArena(FormulaArena& formulas) : formulas_(&formulas) {}

  // -- construction --
  BvTerm bv_const(uint64_t value, uint32_t width);
  BvTerm bv_var(std::string name, uint32_t width);
  BvTerm bv_add(BvTerm a, BvTerm b);
  BvTerm bv_sub(BvTerm a, BvTerm b);
  BvTerm bv_mul(BvTerm a, BvTerm b);
  BvTerm bv_and(BvTerm a, BvTerm b);
  BvTerm bv_or(BvTerm a, BvTerm b);
  BvTerm bv_xor(BvTerm a, BvTerm b);
  BvTerm bv_not(BvTerm a);
  BvTerm bv_shl(BvTerm a, uint32_t amount);
  BvTerm bv_lshr(BvTerm a, uint32_t amount);
  BvTerm bv_zero_extend(BvTerm a, uint32_t new_width);
  BvTerm bv_extract(BvTerm a, uint32_t hi, uint32_t lo);
  BvTerm bv_concat(BvTerm hi, BvTerm lo);
  BvTerm bv_ite(Formula cond, BvTerm a, BvTerm b);

  [[nodiscard]] uint32_t width(BvTerm t) const;
  [[nodiscard]] const std::string& var_name(BvTerm t) const;

  // -- predicates --
  // These return symbolic kBvAtom leaves: the builtin backend blasts them via
  // blast_atom(); the Z3 backend maps them onto native bit-vector theory.
  [[nodiscard]] Formula eq(BvTerm a, BvTerm b);
  [[nodiscard]] Formula ne(BvTerm a, BvTerm b) {
    return formulas_->mk_not(eq(a, b));
  }
  [[nodiscard]] Formula ult(BvTerm a, BvTerm b);
  [[nodiscard]] Formula ule(BvTerm a, BvTerm b);
  [[nodiscard]] Formula ugt(BvTerm a, BvTerm b) { return ult(b, a); }
  [[nodiscard]] Formula uge(BvTerm a, BvTerm b) { return ule(b, a); }
  /// True iff unsigned a + b overflows its width.
  [[nodiscard]] Formula uadd_overflow(BvTerm a, BvTerm b);

  /// Lowers a predicate atom to a pure Boolean formula (ripple comparators /
  /// adders over blasted bits). Memoised.
  [[nodiscard]] Formula blast_atom(const BvAtom& atom);

  /// The blasted bit i (LSB = 0) of a term.
  [[nodiscard]] Formula bit(BvTerm t, uint32_t i);

  /// Reconstructs a term's value from a Boolean variable assignment
  /// (indexed by BoolVar::index). Width must be <= 64.
  [[nodiscard]] uint64_t evaluate(BvTerm t, const std::vector<bool>& assignment);

  /// Atom evaluator hook for FormulaArena::evaluate.
  [[nodiscard]] FormulaArena::AtomEvaluator atom_evaluator();

  /// The BoolVars backing bit i of a variable term (for model extraction).
  [[nodiscard]] const std::vector<BoolVar>& var_bits(BvTerm t) const;

  /// Term structure access (used by the Z3 backend's translator).
  [[nodiscard]] BvOp term_op(BvTerm t) const;
  [[nodiscard]] uint64_t const_value(BvTerm t) const;
  [[nodiscard]] BvTerm operand_a(BvTerm t) const;
  [[nodiscard]] BvTerm operand_b(BvTerm t) const;
  [[nodiscard]] uint32_t immediate(BvTerm t) const;
  [[nodiscard]] uint32_t immediate2(BvTerm t) const;
  [[nodiscard]] Formula ite_condition(BvTerm t) const;
  [[nodiscard]] size_t num_terms() const { return nodes_.size(); }

 private:
  struct Node {
    BvOp op;
    uint32_t width;
    uint64_t constant = 0;          // kConst
    uint32_t a = UINT32_MAX;        // operand ids
    uint32_t b = UINT32_MAX;
    uint32_t imm = 0;               // shift amount / extract lo
    uint32_t imm2 = 0;              // extract hi
    Formula cond;                   // kIte
    std::string name;               // kVar
    std::vector<BoolVar> bits_vars; // kVar: backing BoolVars
  };

  const std::vector<Formula>& blast(BvTerm t);
  std::vector<Formula> blast_node(const Node& n);

  FormulaArena* formulas_;
  std::vector<Node> nodes_;
  std::unordered_map<uint32_t, std::vector<Formula>> blasted_;
  std::unordered_map<BvAtom, Formula, BvAtomHash> blasted_atoms_;
};

}  // namespace llhsc::logic
