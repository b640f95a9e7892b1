#include "logic/cnf.hpp"

#include <cassert>

namespace llhsc::logic {

sat::Var CnfEncoder::sat_var(BoolVar v) {
  if (v.index >= var_map_.size()) {
    var_map_.resize(arena_->num_bool_vars(), kNoVar);
  }
  sat::Var& sv = var_map_[v.index];
  if (sv == kNoVar) sv = solver_->new_var();
  return sv;
}

bool CnfEncoder::model_value(BoolVar v) const {
  if (v.index >= var_map_.size() || var_map_[v.index] == kNoVar) return false;
  return solver_->model_bool(var_map_[v.index]);
}

sat::Lit CnfEncoder::encode(Formula f) {
  if (f.id() < cache_.size() && cache_[f.id()] != sat::Lit()) {
    return cache_[f.id()];
  }
  // Encoding children can create nodes (bit-vector atoms blast lazily), so
  // size the table after encode_node returns.
  sat::Lit l = encode_node(f);
  if (f.id() >= cache_.size()) cache_.resize(arena_->size());
  cache_[f.id()] = l;
  return l;
}

sat::Lit CnfEncoder::encode_node(Formula f) {
  using sat::Lit;
  switch (arena_->op(f)) {
    case Op::kTrue: {
      sat::Var v = solver_->new_var();
      solver_->add_clause(Lit::positive(v));
      return Lit::positive(v);
    }
    case Op::kFalse: {
      sat::Var v = solver_->new_var();
      solver_->add_clause(Lit::negative(v));
      return Lit::positive(v);
    }
    case Op::kVar:
      return Lit::positive(sat_var(arena_->var_of(f)));
    case Op::kBvAtom: {
      assert(bitvectors_ != nullptr &&
             "bit-vector atom encountered without a BvArena");
      return encode(bitvectors_->blast_atom(arena_->bv_atom(f)));
    }
    case Op::kNot:
      return ~encode(arena_->operands(f)[0]);
    default:
      break;
  }
  // The remaining connectives are binary (FormulaArena builds n-ary AND/OR
  // as nested pairs). operands() spans the arena's operand pool, which
  // encoding the children can reallocate, so copy both handles first.
  auto span = arena_->operands(f);
  assert(span.size() == 2);
  const Formula fa = span[0], fb = span[1];
  const Lit a = encode(fa);
  const Lit b = encode(fb);
  const Lit out = Lit::positive(solver_->new_var());
  switch (arena_->op(f)) {
    case Op::kAnd:
      solver_->add_clause(~out, a);
      solver_->add_clause(~out, b);
      solver_->add_clause(~a, ~b, out);
      break;
    case Op::kOr:
      solver_->add_clause(out, ~a);
      solver_->add_clause(out, ~b);
      solver_->add_clause(a, b, ~out);
      break;
    case Op::kXor:
      solver_->add_clause(~out, a, b);
      solver_->add_clause(~out, ~a, ~b);
      solver_->add_clause(out, ~a, b);
      solver_->add_clause(out, a, ~b);
      break;
    case Op::kImplies:
      solver_->add_clause(~out, ~a, b);
      solver_->add_clause(out, a);
      solver_->add_clause(out, ~b);
      break;
    case Op::kIff:
      solver_->add_clause(~out, ~a, b);
      solver_->add_clause(~out, a, ~b);
      solver_->add_clause(out, a, b);
      solver_->add_clause(out, ~a, ~b);
      break;
    default:
      assert(false && "unreachable");
  }
  return out;
}

void CnfEncoder::assert_formula(Formula f) {
  // Copy operand handles before recursing: encoding may grow the arena's
  // operand pool.
  if (arena_->op(f) == Op::kAnd) {
    auto span = arena_->operands(f);
    const Formula fa = span[0], fb = span[1];
    assert_formula(fa);
    assert_formula(fb);
    return;
  }
  if (arena_->op(f) != Op::kOr) {
    solver_->add_clause(encode(f));
    return;
  }
  // One clause over the leaves of the OR tree, left to right.
  std::vector<sat::Lit> clause;
  std::vector<Formula> pending{f};
  while (!pending.empty()) {
    const Formula g = pending.back();
    pending.pop_back();
    if (arena_->op(g) == Op::kOr) {
      auto span = arena_->operands(g);
      pending.push_back(span[1]);
      pending.push_back(span[0]);
    } else {
      clause.push_back(encode(g));
    }
  }
  solver_->add_clause(std::move(clause));
}

}  // namespace llhsc::logic
