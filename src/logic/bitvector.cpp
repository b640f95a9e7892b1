#include "logic/bitvector.hpp"

#include <cassert>

namespace llhsc::logic {

uint32_t BvArena::width(BvTerm t) const { return nodes_.at(t.id()).width; }

const std::string& BvArena::var_name(BvTerm t) const {
  const Node& n = nodes_.at(t.id());
  assert(n.op == BvOp::kVar);
  return n.name;
}

const std::vector<BoolVar>& BvArena::var_bits(BvTerm t) const {
  const Node& n = nodes_.at(t.id());
  assert(n.op == BvOp::kVar);
  return n.bits_vars;
}

BvTerm BvArena::bv_const(uint64_t value, uint32_t width) {
  assert(width >= 1 && width <= 64);
  Node n;
  n.op = BvOp::kConst;
  n.width = width;
  n.constant = width == 64 ? value : (value & ((1ULL << width) - 1));
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_var(std::string name, uint32_t width) {
  assert(width >= 1 && width <= 64);
  Node n;
  n.op = BvOp::kVar;
  n.width = width;
  n.name = name;
  n.bits_vars.reserve(width);
  for (uint32_t i = 0; i < width; ++i) {
    n.bits_vars.push_back(
        formulas_->new_bool_var(name + "[" + std::to_string(i) + "]"));
  }
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

#define LLHSC_BV_BINARY(NAME, OP)                          \
  BvTerm BvArena::NAME(BvTerm a, BvTerm b) {               \
    assert(width(a) == width(b));                          \
    Node n;                                                \
    n.op = OP;                                             \
    n.width = width(a);                                    \
    n.a = a.id();                                          \
    n.b = b.id();                                          \
    nodes_.push_back(std::move(n));                        \
    return BvTerm(static_cast<uint32_t>(nodes_.size() - 1)); \
  }

LLHSC_BV_BINARY(bv_add, BvOp::kAdd)
LLHSC_BV_BINARY(bv_sub, BvOp::kSub)
LLHSC_BV_BINARY(bv_mul, BvOp::kMul)
LLHSC_BV_BINARY(bv_and, BvOp::kAnd)
LLHSC_BV_BINARY(bv_or, BvOp::kOr)
LLHSC_BV_BINARY(bv_xor, BvOp::kXor)
#undef LLHSC_BV_BINARY

BvTerm BvArena::bv_not(BvTerm a) {
  Node n;
  n.op = BvOp::kNot;
  n.width = width(a);
  n.a = a.id();
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_shl(BvTerm a, uint32_t amount) {
  Node n;
  n.op = BvOp::kShlConst;
  n.width = width(a);
  n.a = a.id();
  n.imm = amount;
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_lshr(BvTerm a, uint32_t amount) {
  Node n;
  n.op = BvOp::kLshrConst;
  n.width = width(a);
  n.a = a.id();
  n.imm = amount;
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_zero_extend(BvTerm a, uint32_t new_width) {
  assert(new_width >= width(a) && new_width <= 64);
  Node n;
  n.op = BvOp::kZeroExt;
  n.width = new_width;
  n.a = a.id();
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_extract(BvTerm a, uint32_t hi, uint32_t lo) {
  assert(hi >= lo && hi < width(a));
  Node n;
  n.op = BvOp::kExtract;
  n.width = hi - lo + 1;
  n.a = a.id();
  n.imm = lo;
  n.imm2 = hi;
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_concat(BvTerm hi, BvTerm lo) {
  assert(width(hi) + width(lo) <= 64);
  Node n;
  n.op = BvOp::kConcat;
  n.width = width(hi) + width(lo);
  n.a = hi.id();
  n.b = lo.id();
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

BvTerm BvArena::bv_ite(Formula cond, BvTerm a, BvTerm b) {
  assert(width(a) == width(b));
  Node n;
  n.op = BvOp::kIte;
  n.width = width(a);
  n.a = a.id();
  n.b = b.id();
  n.cond = cond;
  nodes_.push_back(std::move(n));
  return BvTerm(static_cast<uint32_t>(nodes_.size() - 1));
}

const std::vector<Formula>& BvArena::blast(BvTerm t) {
  auto it = blasted_.find(t.id());
  if (it != blasted_.end()) return it->second;
  // blast_node may recurse and mutate blasted_, so compute before inserting.
  std::vector<Formula> bits = blast_node(nodes_.at(t.id()));
  auto [pos, inserted] = blasted_.emplace(t.id(), std::move(bits));
  (void)inserted;
  return pos->second;
}

std::vector<Formula> BvArena::blast_node(const Node& n) {
  FormulaArena& fa = *formulas_;
  std::vector<Formula> out(n.width);
  switch (n.op) {
    case BvOp::kConst: {
      for (uint32_t i = 0; i < n.width; ++i) {
        out[i] = ((n.constant >> i) & 1) ? fa.make_true() : fa.make_false();
      }
      return out;
    }
    case BvOp::kVar: {
      for (uint32_t i = 0; i < n.width; ++i) out[i] = fa.var(n.bits_vars[i]);
      return out;
    }
    case BvOp::kAdd: {
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      Formula carry = fa.make_false();
      for (uint32_t i = 0; i < n.width; ++i) {
        Formula s = fa.mk_xor(fa.mk_xor(a[i], b[i]), carry);
        Formula c = fa.mk_or(fa.mk_and(a[i], b[i]),
                             fa.mk_and(carry, fa.mk_xor(a[i], b[i])));
        out[i] = s;
        carry = c;
      }
      return out;
    }
    case BvOp::kSub: {
      // a - b = a + ~b + 1
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      Formula carry = fa.make_true();
      for (uint32_t i = 0; i < n.width; ++i) {
        Formula nb = fa.mk_not(b[i]);
        Formula s = fa.mk_xor(fa.mk_xor(a[i], nb), carry);
        Formula c = fa.mk_or(fa.mk_and(a[i], nb),
                             fa.mk_and(carry, fa.mk_xor(a[i], nb)));
        out[i] = s;
        carry = c;
      }
      return out;
    }
    case BvOp::kMul: {
      // Shift-and-add multiplier.
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      for (uint32_t i = 0; i < n.width; ++i) out[i] = fa.make_false();
      for (uint32_t i = 0; i < n.width; ++i) {
        // partial = (b[i] ? a << i : 0); out += partial
        Formula carry = fa.make_false();
        for (uint32_t j = i; j < n.width; ++j) {
          Formula p = fa.mk_and(b[i], a[j - i]);
          Formula s = fa.mk_xor(fa.mk_xor(out[j], p), carry);
          Formula c = fa.mk_or(fa.mk_and(out[j], p),
                               fa.mk_and(carry, fa.mk_xor(out[j], p)));
          out[j] = s;
          carry = c;
        }
      }
      return out;
    }
    case BvOp::kAnd: {
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      for (uint32_t i = 0; i < n.width; ++i) out[i] = fa.mk_and(a[i], b[i]);
      return out;
    }
    case BvOp::kOr: {
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      for (uint32_t i = 0; i < n.width; ++i) out[i] = fa.mk_or(a[i], b[i]);
      return out;
    }
    case BvOp::kXor: {
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      for (uint32_t i = 0; i < n.width; ++i) out[i] = fa.mk_xor(a[i], b[i]);
      return out;
    }
    case BvOp::kNot: {
      auto a = blast(BvTerm(n.a));
      for (uint32_t i = 0; i < n.width; ++i) out[i] = fa.mk_not(a[i]);
      return out;
    }
    case BvOp::kShlConst: {
      auto a = blast(BvTerm(n.a));
      for (uint32_t i = 0; i < n.width; ++i) {
        out[i] = i >= n.imm ? a[i - n.imm] : fa.make_false();
      }
      return out;
    }
    case BvOp::kLshrConst: {
      auto a = blast(BvTerm(n.a));
      for (uint32_t i = 0; i < n.width; ++i) {
        out[i] = (i + n.imm) < n.width ? a[i + n.imm] : fa.make_false();
      }
      return out;
    }
    case BvOp::kZeroExt: {
      auto a = blast(BvTerm(n.a));
      for (uint32_t i = 0; i < n.width; ++i) {
        out[i] = i < a.size() ? a[i] : fa.make_false();
      }
      return out;
    }
    case BvOp::kExtract: {
      auto a = blast(BvTerm(n.a));
      for (uint32_t i = 0; i < n.width; ++i) out[i] = a[n.imm + i];
      return out;
    }
    case BvOp::kConcat: {
      auto hi = blast(BvTerm(n.a));
      auto lo = blast(BvTerm(n.b));
      for (uint32_t i = 0; i < lo.size(); ++i) out[i] = lo[i];
      for (uint32_t i = 0; i < hi.size(); ++i) out[lo.size() + i] = hi[i];
      return out;
    }
    case BvOp::kIte: {
      auto a = blast(BvTerm(n.a));
      auto b = blast(BvTerm(n.b));
      for (uint32_t i = 0; i < n.width; ++i) {
        out[i] = fa.mk_ite(n.cond, a[i], b[i]);
      }
      return out;
    }
  }
  assert(false && "unreachable");
  return out;
}

Formula BvArena::eq(BvTerm a, BvTerm b) {
  assert(width(a) == width(b));
  if (a == b) return formulas_->make_true();
  return formulas_->mk_bv_atom(BvPred::kEq, a.id(), b.id());
}

Formula BvArena::ult(BvTerm a, BvTerm b) {
  assert(width(a) == width(b));
  if (a == b) return formulas_->make_false();
  return formulas_->mk_bv_atom(BvPred::kUlt, a.id(), b.id());
}

Formula BvArena::ule(BvTerm a, BvTerm b) {
  assert(width(a) == width(b));
  if (a == b) return formulas_->make_true();
  return formulas_->mk_bv_atom(BvPred::kUle, a.id(), b.id());
}

Formula BvArena::uadd_overflow(BvTerm a, BvTerm b) {
  assert(width(a) == width(b));
  return formulas_->mk_bv_atom(BvPred::kUaddOverflow, a.id(), b.id());
}

Formula BvArena::blast_atom(const BvAtom& atom_ref) {
  const BvAtom atom = atom_ref;  // the reference may point into a growing pool
  if (auto it = blasted_atoms_.find(atom); it != blasted_atoms_.end()) {
    return it->second;
  }
  FormulaArena& fa = *formulas_;
  const auto& ba = blast(BvTerm(atom.lhs_term));
  const auto& bb = blast(BvTerm(atom.rhs_term));
  assert(ba.size() == bb.size());
  Formula result = fa.make_false();
  switch (atom.pred) {
    case BvPred::kEq: {
      Formula acc = fa.make_true();
      for (size_t i = 0; i < ba.size(); ++i) {
        acc = fa.mk_and(acc, fa.mk_iff(ba[i], bb[i]));
      }
      result = acc;
      break;
    }
    case BvPred::kUlt:
    case BvPred::kUle: {
      // Ripple from LSB: lt_i = (~a_i & b_i) | (a_i<=>b_i) & lt_{i-1}.
      // For <=, seed the recurrence with true. Against a constant bit the
      // step is one gate: b_i = 1 gives ~a_i | lt, b_i = 0 gives ~a_i & lt,
      // a_i = 1 gives b_i & lt and a_i = 0 gives b_i | lt.
      const Formula one = fa.make_true(), zero = fa.make_false();
      Formula lt = atom.pred == BvPred::kUle ? one : zero;
      for (size_t i = 0; i < ba.size(); ++i) {
        const Formula a = ba[i], b = bb[i];
        if (b == one) {
          lt = fa.mk_or(fa.mk_not(a), lt);
        } else if (b == zero) {
          lt = fa.mk_and(fa.mk_not(a), lt);
        } else if (a == one) {
          lt = fa.mk_and(b, lt);
        } else if (a == zero) {
          lt = fa.mk_or(b, lt);
        } else {
          const Formula bit_lt = fa.mk_and(fa.mk_not(a), b);
          const Formula bit_eq = fa.mk_iff(a, b);
          lt = fa.mk_or(bit_lt, fa.mk_and(bit_eq, lt));
        }
      }
      result = lt;
      break;
    }
    case BvPred::kUaddOverflow: {
      Formula carry = fa.make_false();
      for (size_t i = 0; i < ba.size(); ++i) {
        carry = fa.mk_or(fa.mk_and(ba[i], bb[i]),
                         fa.mk_and(carry, fa.mk_xor(ba[i], bb[i])));
      }
      result = carry;  // final carry-out == unsigned overflow
      break;
    }
  }
  blasted_atoms_.emplace(atom, result);
  return result;
}

FormulaArena::AtomEvaluator BvArena::atom_evaluator() {
  return [this](const BvAtom& atom, const std::vector<bool>& assignment) {
    uint64_t a = evaluate(BvTerm(atom.lhs_term), assignment);
    uint64_t b = evaluate(BvTerm(atom.rhs_term), assignment);
    switch (atom.pred) {
      case BvPred::kEq: return a == b;
      case BvPred::kUlt: return a < b;
      case BvPred::kUle: return a <= b;
      case BvPred::kUaddOverflow: {
        uint32_t w = width(BvTerm(atom.lhs_term));
        unsigned __int128 sum =
            static_cast<unsigned __int128>(a) + static_cast<unsigned __int128>(b);
        return w == 64 ? sum > UINT64_MAX : sum >= (1ULL << w);
      }
    }
    return false;
  };
}

Formula BvArena::bit(BvTerm t, uint32_t i) {
  const auto& bits = blast(t);
  assert(i < bits.size());
  return bits[i];
}

uint64_t BvArena::evaluate(BvTerm t, const std::vector<bool>& assignment) {
  const auto& bits = blast(t);
  // ite conditions inside a term may themselves contain predicate atoms, so
  // thread the atom evaluator through (the term DAG is acyclic by
  // construction, which bounds the recursion).
  auto ae = atom_evaluator();
  uint64_t value = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (formulas_->evaluate(bits[i], assignment, ae)) value |= 1ULL << i;
  }
  return value;
}

BvOp BvArena::term_op(BvTerm t) const { return nodes_.at(t.id()).op; }
uint64_t BvArena::const_value(BvTerm t) const {
  assert(term_op(t) == BvOp::kConst);
  return nodes_.at(t.id()).constant;
}
BvTerm BvArena::operand_a(BvTerm t) const { return BvTerm(nodes_.at(t.id()).a); }
BvTerm BvArena::operand_b(BvTerm t) const { return BvTerm(nodes_.at(t.id()).b); }
uint32_t BvArena::immediate(BvTerm t) const { return nodes_.at(t.id()).imm; }
uint32_t BvArena::immediate2(BvTerm t) const { return nodes_.at(t.id()).imm2; }
Formula BvArena::ite_condition(BvTerm t) const { return nodes_.at(t.id()).cond; }

}  // namespace llhsc::logic
