#include "feature/analysis.hpp"

namespace llhsc::feature {

Encoding encode(const FeatureModel& model, smt::Solver& solver,
                const std::string& prefix, bool assert_axioms) {
  auto& fa = solver.formulas();
  Encoding enc;
  enc.variables.reserve(model.size());
  for (uint32_t i = 0; i < model.size(); ++i) {
    enc.variables.push_back(
        solver.bool_var(prefix + model.feature(FeatureId{i}).name));
  }

  std::vector<logic::Formula> axioms;
  // Root is present in every product.
  axioms.push_back(enc.variables[model.root().index]);

  for (uint32_t i = 0; i < model.size(); ++i) {
    const Feature& f = model.feature(FeatureId{i});
    logic::Formula fi = enc.variables[i];
    // Child implies parent.
    if (f.parent.valid()) {
      axioms.push_back(fa.mk_implies(fi, enc.variables[f.parent.index]));
    }
    if (f.children.empty()) continue;
    std::vector<logic::Formula> kids;
    kids.reserve(f.children.size());
    for (FeatureId c : f.children) kids.push_back(enc.variables[c.index]);
    switch (f.group) {
      case GroupKind::kAnd:
        for (FeatureId c : f.children) {
          if (model.feature(c).mandatory) {
            // Mandatory child <-> parent (child -> parent already asserted).
            axioms.push_back(fa.mk_implies(fi, enc.variables[c.index]));
          }
        }
        break;
      case GroupKind::kOr:
        axioms.push_back(fa.mk_implies(fi, fa.mk_or(kids)));
        break;
      case GroupKind::kXor:
        axioms.push_back(fa.mk_implies(fi, fa.mk_exactly_one(kids)));
        break;
      case GroupKind::kCardinality: {
        // Count selected children as a bit-vector sum — both backends
        // understand the resulting atoms (builtin blasts, Z3 goes native).
        auto& bv = solver.bitvectors();
        uint32_t width = 1;
        while ((1u << width) <= kids.size()) ++width;
        logic::BvTerm sum = bv.bv_const(0, width);
        logic::BvTerm one = bv.bv_const(1, width);
        logic::BvTerm zero = bv.bv_const(0, width);
        for (logic::Formula kid : kids) {
          sum = bv.bv_add(sum, bv.bv_ite(kid, one, zero));
        }
        logic::Formula in_range =
            fa.mk_and(bv.uge(sum, bv.bv_const(f.group_min, width)),
                      bv.ule(sum, bv.bv_const(f.group_max, width)));
        axioms.push_back(fa.mk_implies(fi, in_range));
        break;
      }
    }
  }
  for (const CrossConstraint& c : model.cross_constraints()) {
    logic::Formula lhs = enc.variables[c.lhs.index];
    logic::Formula rhs = enc.variables[c.rhs.index];
    if (c.kind == CrossConstraint::Kind::kRequires) {
      axioms.push_back(fa.mk_implies(lhs, rhs));
    } else {
      axioms.push_back(fa.mk_not(fa.mk_and(lhs, rhs)));
    }
  }
  enc.axioms = fa.mk_and(axioms);
  if (assert_axioms) solver.add(enc.axioms);
  return enc;
}

bool is_void(const FeatureModel& model, smt::Solver& solver) {
  solver.push();
  Encoding enc = encode(model, solver);
  bool result = solver.check() == smt::CheckResult::kUnsat;
  solver.pop();
  return result;
}

bool is_valid_product(const FeatureModel& model, smt::Solver& solver,
                      const Selection& selection) {
  if (selection.size() != model.size()) return false;
  solver.push();
  Encoding enc = encode(model, solver);
  auto& fa = solver.formulas();
  for (uint32_t i = 0; i < model.size(); ++i) {
    solver.add(selection[i] ? enc.variables[i]
                            : fa.mk_not(enc.variables[i]));
  }
  bool result = solver.check() == smt::CheckResult::kSat;
  solver.pop();
  return result;
}

uint64_t enumerate_products(
    const FeatureModel& model, smt::Solver& solver,
    const std::function<bool(const Selection&)>& on_product,
    uint64_t max_products, bool* capped) {
  solver.push();
  const Encoding enc = encode(model, solver);
  const smt::Solver::Enumeration e =
      solver.enumerate(enc.variables, {}, max_products, on_product);
  solver.pop();
  if (capped != nullptr) *capped = e.capped;
  return e.models;
}

uint64_t count_products(const FeatureModel& model, smt::Solver& solver,
                        uint64_t max_products) {
  return enumerate_products(
      model, solver, [](const Selection&) { return true; }, max_products);
}

std::string product_count_text(const FeatureModel& model,
                               smt::Solver& solver, uint64_t cap) {
  bool capped = false;
  const uint64_t n = enumerate_products(
      model, solver, [](const Selection&) { return true; }, cap, &capped);
  return capped ? "at least " + std::to_string(n) + " (capped)"
                : std::to_string(n);
}

std::vector<FeatureId> dead_features(const FeatureModel& model,
                                     smt::Solver& solver) {
  solver.push();
  Encoding enc = encode(model, solver);
  std::vector<FeatureId> dead;
  for (uint32_t i = 0; i < model.size(); ++i) {
    std::vector<logic::Formula> assume{enc.variables[i]};
    if (solver.check_assuming(assume) == smt::CheckResult::kUnsat) {
      dead.push_back(FeatureId{i});
    }
  }
  solver.pop();
  return dead;
}

std::vector<FeatureId> core_features(const FeatureModel& model,
                                     smt::Solver& solver) {
  solver.push();
  Encoding enc = encode(model, solver);
  auto& fa = solver.formulas();
  std::vector<FeatureId> core;
  for (uint32_t i = 0; i < model.size(); ++i) {
    std::vector<logic::Formula> assume{fa.mk_not(enc.variables[i])};
    if (solver.check_assuming(assume) == smt::CheckResult::kUnsat) {
      core.push_back(FeatureId{i});
    }
  }
  solver.pop();
  return core;
}

std::vector<FeatureId> false_optional_features(const FeatureModel& model,
                                               smt::Solver& solver) {
  std::vector<FeatureId> out;
  for (FeatureId f : core_features(model, solver)) {
    const Feature& feature = model.feature(f);
    if (!feature.mandatory && f != model.root()) out.push_back(f);
  }
  return out;
}

std::vector<FeatureId> explain_invalid_product(const FeatureModel& model,
                                               smt::Solver& solver,
                                               const Selection& selection) {
  if (selection.size() != model.size()) return {};
  solver.push();
  Encoding enc = encode(model, solver);
  auto& fa = solver.formulas();
  std::vector<logic::Formula> assumptions;
  assumptions.reserve(model.size());
  for (uint32_t i = 0; i < model.size(); ++i) {
    assumptions.push_back(selection[i] ? enc.variables[i]
                                       : fa.mk_not(enc.variables[i]));
  }
  std::vector<FeatureId> out;
  if (solver.check_assuming(assumptions) == smt::CheckResult::kUnsat) {
    std::vector<logic::Formula> core = solver.unsat_core();
    for (uint32_t i = 0; i < model.size(); ++i) {
      for (logic::Formula c : core) {
        if (c == assumptions[i]) {
          out.push_back(FeatureId{i});
          break;
        }
      }
    }
  }
  solver.pop();
  return out;
}

FeatureModel running_example_model() {
  FeatureModel m;
  FeatureId root = m.add_root("CustomSBC");
  m.add_feature(root, "memory", /*mandatory=*/true);

  FeatureId cpus = m.add_feature(root, "cpus", /*mandatory=*/true);
  m.set_group(cpus, GroupKind::kXor);
  FeatureId cpu0 = m.add_feature(cpus, "cpu@0");
  FeatureId cpu1 = m.add_feature(cpus, "cpu@1");

  // Note on Fig. 1a: the text calls both `uarts` and `vEthernet` optional,
  // but the reported product count (12) requires at least one UART in every
  // product (2 cpu choices x 3 non-empty UART subsets x 2 vEthernet choices).
  // Fig. 1b/1c also both include UARTs, and Bao needs a console device, so we
  // model `uarts` as mandatory-abstract with an OR group.
  FeatureId uarts =
      m.add_feature(root, "uarts", /*mandatory=*/true, /*abstract=*/true);
  m.set_group(uarts, GroupKind::kOr);
  m.add_feature(uarts, "uart@20000000");
  m.add_feature(uarts, "uart@30000000");

  FeatureId veth = m.add_feature(root, "vEthernet", /*mandatory=*/false,
                                 /*abstract=*/true);
  m.set_group(veth, GroupKind::kXor);
  FeatureId veth0 = m.add_feature(veth, "veth0");
  FeatureId veth1 = m.add_feature(veth, "veth1");

  // "if veth0 is selected, then cpu@0 must be selected (the same applies to
  // veth1 and cpu@1)" — paper §III-A.
  m.add_requires(veth0, cpu0);
  m.add_requires(veth1, cpu1);
  return m;
}

}  // namespace llhsc::feature
