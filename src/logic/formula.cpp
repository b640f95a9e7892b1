#include "logic/formula.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace llhsc::logic {

namespace {
uint64_t hash_node(Op op, uint32_t var, std::span<const Formula> operands) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(op);
  h = h * 0x100000001b3ULL ^ var;
  for (Formula f : operands) {
    h = h * 0x100000001b3ULL ^ f.id();
  }
  // splitmix64 finaliser: the multiply-xor chain above leaves its low bits
  // (the ones the index masks) poorly mixed, which clusters linear probes.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}
}  // namespace

FormulaArena::FormulaArena() : index_(64, kEmptySlot) {
  true_ = intern(Op::kTrue, UINT32_MAX, {});
  false_ = intern(Op::kFalse, UINT32_MAX, {});
}

bool FormulaArena::same_node(uint32_t id, Op op, uint32_t var,
                             std::span<const Formula> operands) const {
  const Node& n = nodes_[id];
  if (n.op != op || n.var != var || n.operands_count != operands.size()) {
    return false;
  }
  return std::equal(operands.begin(), operands.end(),
                    operand_pool_.begin() + n.operands_begin);
}

void FormulaArena::grow_index() {
  std::vector<uint32_t> index(index_.size() * 2, kEmptySlot);
  const size_t mask = index.size() - 1;
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    std::span<const Formula> ops(operand_pool_.data() + n.operands_begin,
                                 n.operands_count);
    size_t i = hash_node(n.op, n.var, ops) & mask;
    while (index[i] != kEmptySlot) i = (i + 1) & mask;
    index[i] = id;
  }
  index_ = std::move(index);
}

Formula FormulaArena::intern(Op op, uint32_t var,
                             std::span<const Formula> operands) {
  const uint64_t h = hash_node(op, var, operands);
  const size_t mask = index_.size() - 1;
  size_t i = h & mask;
  for (; index_[i] != kEmptySlot; i = (i + 1) & mask) {
    if (same_node(index_[i], op, var, operands)) return Formula(index_[i]);
  }
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  Node n;
  n.op = op;
  n.var = var;
  n.operands_begin = static_cast<uint32_t>(operand_pool_.size());
  n.operands_count = static_cast<uint32_t>(operands.size());
  operand_pool_.insert(operand_pool_.end(), operands.begin(), operands.end());
  nodes_.push_back(n);
  if (nodes_.size() * 2 > index_.size()) {
    grow_index();  // rehashes every node, this one included
  } else {
    index_[i] = id;
  }
  return Formula(id);
}

BoolVar FormulaArena::new_bool_var(std::string name) {
  BoolVar v{static_cast<uint32_t>(var_names_.size())};
  var_names_.push_back(std::move(name));
  return v;
}

Formula FormulaArena::var(BoolVar v) {
  assert(v.index < var_names_.size());
  return intern(Op::kVar, v.index, {});
}

const std::string& FormulaArena::var_name(BoolVar v) const {
  return var_names_.at(v.index);
}

Formula FormulaArena::mk_not(Formula f) {
  if (f == true_) return false_;
  if (f == false_) return true_;
  if (op(f) == Op::kNot) return operands(f)[0];  // double negation
  Formula ops[1] = {f};
  return intern(Op::kNot, UINT32_MAX, ops);
}

Formula FormulaArena::mk_and(Formula a, Formula b) {
  if (a == false_ || b == false_) return false_;
  if (a == true_) return b;
  if (b == true_) return a;
  if (a == b) return a;
  if (mk_not(a) == b) return false_;
  if (a.id() > b.id()) std::swap(a, b);  // canonical order
  Formula ops[2] = {a, b};
  return intern(Op::kAnd, UINT32_MAX, ops);
}

Formula FormulaArena::mk_or(Formula a, Formula b) {
  if (a == true_ || b == true_) return true_;
  if (a == false_) return b;
  if (b == false_) return a;
  if (a == b) return a;
  if (mk_not(a) == b) return true_;
  if (a.id() > b.id()) std::swap(a, b);
  Formula ops[2] = {a, b};
  return intern(Op::kOr, UINT32_MAX, ops);
}

Formula FormulaArena::mk_xor(Formula a, Formula b) {
  if (a == false_) return b;
  if (b == false_) return a;
  if (a == true_) return mk_not(b);
  if (b == true_) return mk_not(a);
  if (a == b) return false_;
  if (mk_not(a) == b) return true_;
  if (a.id() > b.id()) std::swap(a, b);
  Formula ops[2] = {a, b};
  return intern(Op::kXor, UINT32_MAX, ops);
}

Formula FormulaArena::mk_implies(Formula a, Formula b) {
  return mk_or(mk_not(a), b);
}

Formula FormulaArena::mk_iff(Formula a, Formula b) {
  if (a == true_) return b;
  if (b == true_) return a;
  if (a == false_) return mk_not(b);
  if (b == false_) return mk_not(a);
  if (a == b) return true_;
  if (mk_not(a) == b) return false_;
  if (a.id() > b.id()) std::swap(a, b);
  Formula ops[2] = {a, b};
  return intern(Op::kIff, UINT32_MAX, ops);
}

Formula FormulaArena::mk_ite(Formula c, Formula t, Formula e) {
  if (c == true_) return t;
  if (c == false_) return e;
  if (t == e) return t;
  return mk_or(mk_and(c, t), mk_and(mk_not(c), e));
}

Formula FormulaArena::mk_and(std::span<const Formula> fs) {
  Formula acc = true_;
  for (Formula f : fs) acc = mk_and(acc, f);
  return acc;
}

Formula FormulaArena::mk_or(std::span<const Formula> fs) {
  Formula acc = false_;
  for (Formula f : fs) acc = mk_or(acc, f);
  return acc;
}

Formula FormulaArena::mk_at_most_one_pairwise(std::span<const Formula> fs) {
  Formula acc = true_;
  for (size_t i = 0; i < fs.size(); ++i) {
    for (size_t j = i + 1; j < fs.size(); ++j) {
      acc = mk_and(acc, mk_not(mk_and(fs[i], fs[j])));
    }
  }
  return acc;
}

Formula FormulaArena::mk_at_most_one_sequential(std::span<const Formula> fs) {
  if (fs.size() <= 1) return true_;
  // s_i == "some f_0..f_i is true". Constraints:
  //   s_i <- f_i, s_i <- s_{i-1}, and ~(s_{i-1} & f_i).
  // The s_i are one-directionally constrained, so any model extends
  // uniquely once we also force s_i -> (f_i | s_{i-1}) — include both
  // directions to keep model counting exact over the original variables.
  std::vector<Formula> ops(fs.begin(), fs.end());
  Formula acc = true_;
  Formula prev = ops[0];
  for (size_t i = 1; i < ops.size(); ++i) {
    acc = mk_and(acc, mk_not(mk_and(prev, ops[i])));
    if (i + 1 < ops.size()) {
      BoolVar sv = new_bool_var("$amo" + std::to_string(vars_created_++));
      Formula s = var(sv);
      acc = mk_and(acc, mk_iff(s, mk_or(prev, ops[i])));
      prev = s;
    }
  }
  return acc;
}

Formula FormulaArena::mk_at_most_one(std::span<const Formula> fs) {
  return fs.size() <= kAtMostOnePairwiseLimit ? mk_at_most_one_pairwise(fs)
                                              : mk_at_most_one_sequential(fs);
}

Formula FormulaArena::mk_exactly_one(std::span<const Formula> fs) {
  return mk_and(mk_or(fs), mk_at_most_one(fs));
}

Formula FormulaArena::mk_bv_atom(BvPred pred, uint32_t lhs_term,
                                 uint32_t rhs_term) {
  // Encode the atom payload in `var`: index into atoms_. Interning keyed on
  // the payload so identical predicates share one node; ids stay in
  // creation order.
  const BvAtom atom{pred, lhs_term, rhs_term};
  auto [it, fresh] =
      atom_ids_.try_emplace(atom, static_cast<uint32_t>(atoms_.size()));
  if (fresh) atoms_.push_back(atom);
  return intern(Op::kBvAtom, it->second, {});
}

const BvAtom& FormulaArena::bv_atom(Formula f) const {
  const Node& n = nodes_.at(f.id());
  assert(n.op == Op::kBvAtom);
  return atoms_.at(n.var);
}

Op FormulaArena::op(Formula f) const { return nodes_.at(f.id()).op; }

BoolVar FormulaArena::var_of(Formula f) const {
  const Node& n = nodes_.at(f.id());
  assert(n.op == Op::kVar);
  return BoolVar{n.var};
}

std::span<const Formula> FormulaArena::operands(Formula f) const {
  const Node& n = nodes_.at(f.id());
  return {operand_pool_.data() + n.operands_begin, n.operands_count};
}

bool FormulaArena::evaluate(Formula f, const std::vector<bool>& assignment,
                            const AtomEvaluator& atom_eval) const {
  const Node& n = nodes_.at(f.id());
  switch (n.op) {
    case Op::kTrue: return true;
    case Op::kFalse: return false;
    case Op::kVar: return assignment.at(n.var);
    case Op::kBvAtom:
      return atom_eval ? atom_eval(atoms_.at(n.var), assignment) : false;
    case Op::kNot: return !evaluate(operands(f)[0], assignment, atom_eval);
    case Op::kAnd: {
      for (Formula g : operands(f)) {
        if (!evaluate(g, assignment, atom_eval)) return false;
      }
      return true;
    }
    case Op::kOr: {
      for (Formula g : operands(f)) {
        if (evaluate(g, assignment, atom_eval)) return true;
      }
      return false;
    }
    case Op::kXor: {
      bool acc = false;
      for (Formula g : operands(f)) acc ^= evaluate(g, assignment, atom_eval);
      return acc;
    }
    case Op::kImplies: {
      auto ops = operands(f);
      return !evaluate(ops[0], assignment, atom_eval) ||
             evaluate(ops[1], assignment, atom_eval);
    }
    case Op::kIff: {
      auto ops = operands(f);
      return evaluate(ops[0], assignment, atom_eval) ==
             evaluate(ops[1], assignment, atom_eval);
    }
  }
  return false;
}

std::string FormulaArena::to_string(Formula f) const {
  const Node& n = nodes_.at(f.id());
  switch (n.op) {
    case Op::kTrue: return "true";
    case Op::kFalse: return "false";
    case Op::kVar: return var_names_.at(n.var);
    case Op::kBvAtom: {
      const BvAtom& a = atoms_.at(n.var);
      const char* p = a.pred == BvPred::kEq    ? "bv="
                      : a.pred == BvPred::kUlt ? "bv<"
                      : a.pred == BvPred::kUle ? "bv<="
                                               : "bv-addo";
      std::ostringstream os;
      os << '(' << p << " t" << a.lhs_term << " t" << a.rhs_term << ')';
      return os.str();
    }
    default: break;
  }
  const char* name = "?";
  switch (n.op) {
    case Op::kNot: name = "not"; break;
    case Op::kAnd: name = "and"; break;
    case Op::kOr: name = "or"; break;
    case Op::kXor: name = "xor"; break;
    case Op::kImplies: name = "=>"; break;
    case Op::kIff: name = "<=>"; break;
    default: break;
  }
  std::ostringstream os;
  os << '(' << name;
  for (Formula g : operands(f)) os << ' ' << to_string(g);
  os << ')';
  return os.str();
}

}  // namespace llhsc::logic
