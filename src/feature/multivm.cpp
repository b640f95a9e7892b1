#include "feature/multivm.hpp"

namespace llhsc::feature {

MultiVmEncoding encode_multivm(const FeatureModel& model, smt::Solver& solver,
                               int num_vms,
                               std::span<const FeatureId> exclusive) {
  auto& fa = solver.formulas();
  MultiVmEncoding enc;
  // Platform copy: variables only — the platform tree is the *union* of VM
  // selections, so its shape is implied rather than independently decomposed
  // (asserting XOR groups on the union would wrongly forbid e.g. both CPUs
  // appearing in the platform DTS).
  enc.platform = encode(model, solver, "platform.", /*assert_axioms=*/false);
  for (int k = 0; k < num_vms; ++k) {
    enc.vms.push_back(
        encode(model, solver, "vm" + std::to_string(k) + ".", true));
  }

  // Union axiom: platform_i <-> OR_k vm_k_i.
  for (uint32_t i = 0; i < model.size(); ++i) {
    std::vector<logic::Formula> any;
    any.reserve(enc.vms.size());
    for (const Encoding& vm : enc.vms) any.push_back(vm.variables[i]);
    solver.add(fa.mk_iff(enc.platform.variables[i], fa.mk_or(any)));
  }

  // Across-VM exclusivity for designated resources.
  for (FeatureId f : exclusive) {
    for (size_t k = 0; k < enc.vms.size(); ++k) {
      for (size_t l = k + 1; l < enc.vms.size(); ++l) {
        solver.add(fa.mk_not(fa.mk_and(enc.vms[k].variables[f.index],
                                       enc.vms[l].variables[f.index])));
      }
    }
  }
  return enc;
}

bool allocation_feasible(const FeatureModel& model, smt::Backend backend,
                         int num_vms, std::span<const FeatureId> exclusive) {
  smt::Solver solver(backend);
  encode_multivm(model, solver, num_vms, exclusive);
  return solver.check() == smt::CheckResult::kSat;
}

int max_feasible_vms(const FeatureModel& model, smt::Backend backend,
                     std::span<const FeatureId> exclusive, int limit) {
  int best = 0;
  for (int m = 1; m <= limit; ++m) {
    if (!allocation_feasible(model, backend, m, exclusive)) break;
    best = m;
  }
  return best;
}

bool check_allocation(const FeatureModel& model, smt::Solver& solver,
                      std::span<const FeatureId> exclusive,
                      const std::vector<Selection>& vm_selections) {
  for (const Selection& s : vm_selections) {
    if (s.size() != model.size()) return false;
  }
  solver.push();
  auto& fa = solver.formulas();
  MultiVmEncoding enc = encode_multivm(
      model, solver, static_cast<int>(vm_selections.size()), exclusive);
  for (size_t k = 0; k < vm_selections.size(); ++k) {
    for (uint32_t i = 0; i < model.size(); ++i) {
      solver.add(vm_selections[k][i] ? enc.vms[k].variables[i]
                                     : fa.mk_not(enc.vms[k].variables[i]));
    }
  }
  bool ok = solver.check() == smt::CheckResult::kSat;
  solver.pop();
  return ok;
}

uint64_t enumerate_allocations(
    const FeatureModel& model, smt::Solver& solver, int num_vms,
    std::span<const FeatureId> exclusive,
    const std::function<bool(const Allocation&)>& on_allocation,
    uint64_t max_allocations) {
  solver.push();
  MultiVmEncoding enc = encode_multivm(model, solver, num_vms, exclusive);
  // Project onto the VM-assignment combination; the platform selection is
  // read from the same model.
  std::vector<logic::Formula> projection;
  for (const Encoding& vm : enc.vms) {
    projection.insert(projection.end(), vm.variables.begin(),
                      vm.variables.end());
  }
  const smt::Solver::Enumeration e = solver.enumerate(
      projection, {}, max_allocations, [&](const std::vector<bool>& values) {
        Allocation alloc;
        alloc.platform_selection.resize(model.size());
        for (uint32_t i = 0; i < model.size(); ++i) {
          alloc.platform_selection[i] =
              solver.model_bool(enc.platform.variables[i]);
        }
        size_t next = 0;
        for (int k = 0; k < num_vms; ++k) {
          Selection sel(model.size());
          for (uint32_t i = 0; i < model.size(); ++i) sel[i] = values[next++];
          alloc.vm_selections.push_back(std::move(sel));
        }
        return on_allocation(alloc);
      });
  solver.pop();
  return e.models;
}

}  // namespace llhsc::feature
