// Z3 backend: translates the shared Formula/BvTerm DAG onto the Z3 native
// C++ API. Boolean structure maps 1:1; kBvAtom leaves map to Z3 bit-vector
// theory terms (no pre-blasting — Z3 applies its own bit-blasting tactic,
// exactly as the paper describes in §IV-C).
#include <cassert>
#include <optional>
#include <unordered_map>

#include <z3++.h>

#include "smt/solver.hpp"

namespace llhsc::smt {

namespace {

class Z3Backend final : public SolverBackend {
 public:
  Z3Backend(logic::FormulaArena& formulas, logic::BvArena& bitvectors)
      : formulas_(&formulas), bitvectors_(&bitvectors), solver_(ctx_) {}

  void add(logic::Formula f, logic::Formula guard) override {
    solver_.add(translate(guard.valid() ? formulas_->mk_implies(guard, f) : f));
  }

  /// Z3 manages its own learnt store: a closed scope is just !guard.
  void retire(logic::Formula guard) override {
    solver_.add(translate(formulas_->mk_not(guard)));
  }

  void set_deadline(const support::Deadline& deadline) override {
    deadline_ = deadline;
  }

  void prepare(std::span<const logic::Formula> assumptions) override {
    // Builds the Z3 exprs now, while the caller still guarantees exclusive
    // access to the shared term arenas; check() then only reads the caches.
    for (logic::Formula f : assumptions) (void)translate(f);
  }

  void interrupt() override {
    // Solver-scoped interrupt, not ctx_.interrupt(): the context-level flag
    // is only consumed by an *in-flight* interruptible procedure, so an
    // interrupt landing just after check() returns would poison the context
    // and make the next add() throw "canceled". Z3_solver_interrupt
    // targets the running check and is a no-op between checks.
    Z3_solver_interrupt(ctx_, solver_);
  }

  CheckResult check(std::span<const logic::Formula> assumptions) override {
    // Map the deadline onto Z3's per-check timeout. 4294967295 (UINT32_MAX)
    // is Z3's "no timeout" sentinel; an already-expired deadline still gets
    // 1ms so the check returns unknown promptly instead of running free.
    z3::params params(ctx_);
    unsigned timeout_ms = UINT32_MAX;
    if (!deadline_.unlimited()) {
      uint64_t left = deadline_.remaining_ms();
      timeout_ms = left == 0 ? 1u
                   : left >= UINT32_MAX
                       ? UINT32_MAX - 1
                       : static_cast<unsigned>(left);
    }
    params.set("timeout", timeout_ms);
    solver_.set(params);
    z3::expr_vector assume(ctx_);
    assumption_map_.clear();
    for (logic::Formula f : assumptions) {
      z3::expr e = translate(f);
      assumption_map_.emplace_back(e, f);
      assume.push_back(e);
    }
    switch (solver_.check(assume)) {
      case z3::sat: model_ = solver_.get_model(); has_model_ = true; return CheckResult::kSat;
      case z3::unsat: return CheckResult::kUnsat;
      default: return CheckResult::kUnknown;
    }
  }

  std::vector<logic::Formula> unsat_core() override {
    std::vector<logic::Formula> core;
    z3::expr_vector z3_core = solver_.unsat_core();
    for (unsigned i = 0; i < z3_core.size(); ++i) {
      for (const auto& [expr, formula] : assumption_map_) {
        if (z3::eq(expr, z3_core[i])) {
          core.push_back(formula);
          break;
        }
      }
    }
    return core;
  }

  bool model_bool(logic::BoolVar v) override {
    assert(has_model_);
    auto it = bool_consts_.find(v.index);
    if (it == bool_consts_.end()) return false;  // unconstrained
    z3::expr val = model_->eval(it->second, /*model_completion=*/true);
    return val.bool_value() == Z3_L_TRUE;
  }

  uint64_t model_bv(logic::BvTerm t) override {
    assert(has_model_);
    z3::expr val = model_->eval(translate_term(t), /*model_completion=*/true);
    return val.get_numeral_uint64();
  }

 private:
  z3::expr translate(logic::Formula f) {
    auto it = formula_cache_.find(f.id());
    if (it != formula_cache_.end()) return it->second;
    z3::expr e = translate_uncached(f);
    formula_cache_.emplace(f.id(), e);
    return e;
  }

  z3::expr translate_uncached(logic::Formula f) {
    using logic::Op;
    const auto& fa = *formulas_;
    switch (fa.op(f)) {
      case Op::kTrue: return ctx_.bool_val(true);
      case Op::kFalse: return ctx_.bool_val(false);
      case Op::kVar: {
        logic::BoolVar v = fa.var_of(f);
        auto it = bool_consts_.find(v.index);
        if (it != bool_consts_.end()) return it->second;
        // Uniquify by index: distinct BoolVars may share a display name.
        std::string name =
            fa.var_name(v) + "!" + std::to_string(v.index);
        z3::expr c = ctx_.bool_const(name.c_str());
        bool_consts_.emplace(v.index, c);
        return c;
      }
      case Op::kBvAtom: {
        const logic::BvAtom& atom = fa.bv_atom(f);
        z3::expr a = translate_term_id(atom.lhs_term);
        z3::expr b = translate_term_id(atom.rhs_term);
        switch (atom.pred) {
          case logic::BvPred::kEq: return a == b;
          case logic::BvPred::kUlt: return z3::ult(a, b);
          case logic::BvPred::kUle: return z3::ule(a, b);
          case logic::BvPred::kUaddOverflow: {
            // Overflow iff zero-extended sum exceeds the width's max value.
            unsigned w = a.get_sort().bv_size();
            z3::expr az = z3::zext(a, 1);
            z3::expr bz = z3::zext(b, 1);
            z3::expr sum = az + bz;
            return sum.extract(w, w) == ctx_.bv_val(1, 1);
          }
        }
        break;
      }
      case Op::kNot: return !translate(fa.operands(f)[0]);
      case Op::kAnd: {
        z3::expr_vector ops(ctx_);
        for (logic::Formula g : fa.operands(f)) ops.push_back(translate(g));
        return z3::mk_and(ops);
      }
      case Op::kOr: {
        z3::expr_vector ops(ctx_);
        for (logic::Formula g : fa.operands(f)) ops.push_back(translate(g));
        return z3::mk_or(ops);
      }
      case Op::kXor: {
        auto ops = fa.operands(f);
        z3::expr acc = translate(ops[0]);
        for (size_t i = 1; i < ops.size(); ++i) acc = acc != translate(ops[i]);
        return acc;
      }
      case Op::kImplies: {
        auto ops = fa.operands(f);
        return z3::implies(translate(ops[0]), translate(ops[1]));
      }
      case Op::kIff: {
        auto ops = fa.operands(f);
        return translate(ops[0]) == translate(ops[1]);
      }
    }
    assert(false && "unreachable");
    return ctx_.bool_val(false);
  }

  z3::expr translate_term(logic::BvTerm t) { return translate_term_id(t.id()); }

  z3::expr translate_term_id(uint32_t id) {
    auto it = term_cache_.find(id);
    if (it != term_cache_.end()) return it->second;
    z3::expr e = translate_term_uncached(logic::BvTerm::from_id(id));
    term_cache_.emplace(id, e);
    return e;
  }

  z3::expr translate_term_uncached(logic::BvTerm t) {
    using logic::BvOp;
    auto& bv = *bitvectors_;
    unsigned w = bv.width(t);
    switch (bv.term_op(t)) {
      case BvOp::kConst: return ctx_.bv_val(bv.const_value(t), w);
      case BvOp::kVar: {
        std::string name = bv.var_name(t) + "!t" + std::to_string(t.id());
        return ctx_.bv_const(name.c_str(), w);
      }
      case BvOp::kAdd:
        return translate_term(bv.operand_a(t)) + translate_term(bv.operand_b(t));
      case BvOp::kSub:
        return translate_term(bv.operand_a(t)) - translate_term(bv.operand_b(t));
      case BvOp::kMul:
        return translate_term(bv.operand_a(t)) * translate_term(bv.operand_b(t));
      case BvOp::kAnd:
        return translate_term(bv.operand_a(t)) & translate_term(bv.operand_b(t));
      case BvOp::kOr:
        return translate_term(bv.operand_a(t)) | translate_term(bv.operand_b(t));
      case BvOp::kXor:
        return translate_term(bv.operand_a(t)) ^ translate_term(bv.operand_b(t));
      case BvOp::kNot: return ~translate_term(bv.operand_a(t));
      case BvOp::kShlConst:
        return z3::shl(translate_term(bv.operand_a(t)), ctx_.bv_val(bv.immediate(t), w));
      case BvOp::kLshrConst:
        return z3::lshr(translate_term(bv.operand_a(t)), ctx_.bv_val(bv.immediate(t), w));
      case BvOp::kZeroExt: {
        z3::expr a = translate_term(bv.operand_a(t));
        return z3::zext(a, w - a.get_sort().bv_size());
      }
      case BvOp::kExtract:
        return translate_term(bv.operand_a(t)).extract(bv.immediate2(t), bv.immediate(t));
      case BvOp::kConcat:
        return z3::concat(translate_term(bv.operand_a(t)),
                          translate_term(bv.operand_b(t)));
      case BvOp::kIte:
        return z3::ite(translate(bv.ite_condition(t)),
                       translate_term(bv.operand_a(t)),
                       translate_term(bv.operand_b(t)));
    }
    assert(false && "unreachable");
    return ctx_.bv_val(0, w);
  }

  logic::FormulaArena* formulas_;
  logic::BvArena* bitvectors_;
  z3::context ctx_;
  z3::solver solver_;
  support::Deadline deadline_;
  std::optional<z3::model> model_;
  bool has_model_ = false;
  std::unordered_map<uint32_t, z3::expr> formula_cache_;
  std::unordered_map<uint32_t, z3::expr> term_cache_;
  std::unordered_map<uint32_t, z3::expr> bool_consts_;
  std::vector<std::pair<z3::expr, logic::Formula>> assumption_map_;
};

}  // namespace

std::unique_ptr<SolverBackend> make_z3_backend(logic::FormulaArena& formulas,
                                               logic::BvArena& bitvectors) {
  return std::make_unique<Z3Backend>(formulas, bitvectors);
}

}  // namespace llhsc::smt
