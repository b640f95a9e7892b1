#include "logic/cnf.hpp"

#include <cassert>

namespace llhsc::logic {

namespace {

/// Connectives whose encoding makes a gate variable of their own.
bool is_gate(Op op) {
  return op == Op::kAnd || op == Op::kOr || op == Op::kXor ||
         op == Op::kImplies || op == Op::kIff;
}

}  // namespace

sat::Var CnfEncoder::sat_var(BoolVar v) {
  if (v.index >= var_map_.size()) {
    var_map_.resize(arena_->num_bool_vars(), kNoVar);
  }
  sat::Var& sv = var_map_[v.index];
  if (sv == kNoVar) {
    sv = solver_->new_var();
    if (!scopes_.empty()) scope_vars_.push_back(v.index);
  }
  return sv;
}

bool CnfEncoder::model_value(BoolVar v) const {
  if (v.index >= var_map_.size() || var_map_[v.index] == kNoVar) return false;
  return solver_->model_bool(var_map_[v.index]);
}

sat::Lit CnfEncoder::constant_true() {
  if (true_lit_ == sat::Lit()) {
    true_lit_ = sat::Lit::positive(solver_->new_var());
    solver_->add_clause(true_lit_);
  }
  return true_lit_;
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
  if (!scopes_.empty()) scope_memo_.push_back(f);
  return l;
}

sat::Lit CnfEncoder::encode_node(Formula f) {
  using sat::Lit;
  switch (arena_->op(f)) {
    case Op::kTrue:
      return constant_true();
    case Op::kFalse:
      return ~constant_true();
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

void CnfEncoder::see_through(Formula& f, bool& positive) {
  while (true) {
    const Op op = arena_->op(f);
    if (op == Op::kNot) {
      f = arena_->operands(f)[0];
      positive = !positive;
    } else if (op == Op::kBvAtom && bitvectors_ != nullptr) {
      f = bitvectors_->blast_atom(arena_->bv_atom(f));
    } else {
      return;
    }
  }
}

void CnfEncoder::assert_formula(Formula f, Formula guard) {
  sat::Lit not_guard;  // invalid at the top level
  if (guard.valid()) {
    if (scopes_.empty() || scopes_.back().guard != guard) {
      scopes_.push_back({guard, scope_memo_.size(), scope_vars_.size()});
    }
    not_guard = ~encode(guard);
  }
  // Conjuncts depth-first, left to right. Operand handles are copied before
  // anything is encoded: encoding may grow the arena's operand pool.
  conjuncts_.assign(1, {f, true});
  while (!conjuncts_.empty()) {
    auto [g, positive] = conjuncts_.back();
    conjuncts_.pop_back();
    see_through(g, positive);
    const Op op = arena_->op(g);
    if (op == (positive ? Op::kTrue : Op::kFalse)) continue;
    if (op == (positive ? Op::kAnd : Op::kOr)) {
      auto span = arena_->operands(g);
      const Formula left = span[0], right = span[1];
      conjuncts_.emplace_back(right, positive);
      conjuncts_.emplace_back(left, positive);
      continue;
    }
    add_disjunction(g, positive, not_guard);
  }
}

void CnfEncoder::add_disjunction(Formula f, bool positive,
                                 sat::Lit not_guard) {
  // One clause over the leaves of the disjunction tree, left to right.
  clause_.clear();
  if (not_guard != sat::Lit()) clause_.push_back(not_guard);
  disjuncts_.assign(1, {f, positive});
  while (!disjuncts_.empty()) {
    auto [g, pos] = disjuncts_.back();
    disjuncts_.pop_back();
    see_through(g, pos);
    const Op op = arena_->op(g);
    if (op == (pos ? Op::kTrue : Op::kFalse)) return;  // the clause holds
    if (op == (pos ? Op::kFalse : Op::kTrue)) continue;
    if (op == (pos ? Op::kOr : Op::kAnd)) {
      auto span = arena_->operands(g);
      const Formula left = span[0], right = span[1];
      disjuncts_.emplace_back(right, pos);
      disjuncts_.emplace_back(left, pos);
      continue;
    }
    const sat::Lit l = encode(g);
    clause_.push_back(pos ? l : ~l);
  }
  solver_->add_clause(clause_);
}

void CnfEncoder::forget(BoolVar v) {
  if (v.index >= var_map_.size() || var_map_[v.index] == kNoVar) return;
  solver_->release(var_map_[v.index]);
  var_map_[v.index] = kNoVar;
}

void CnfEncoder::retire(Formula guard) {
  if (!scopes_.empty() && scopes_.back().guard == guard) {
    const Scope scope = scopes_.back();
    scopes_.pop_back();
    for (size_t i = scope.memo_begin; i < scope_memo_.size(); ++i) {
      const Formula f = scope_memo_[i];
      if (is_gate(arena_->op(f))) solver_->release(cache_[f.id()].var());
      cache_[f.id()] = sat::Lit();
    }
    for (size_t i = scope.vars_begin; i < scope_vars_.size(); ++i) {
      forget(BoolVar{scope_vars_[i]});
    }
    scope_memo_.resize(scope.memo_begin);
    scope_vars_.resize(scope.vars_begin);
  }
  // A guard first encoded for a check, before its scope asserted anything,
  // belongs to the scope around it; it goes now all the same.
  forget(arena_->var_of(guard));
  if (guard.id() < cache_.size()) cache_[guard.id()] = sat::Lit();
  solver_->simplify();
}

}  // namespace llhsc::logic
