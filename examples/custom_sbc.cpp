// The paper's running example, end to end (Fig. 2): the CustomSBC feature
// model, the delta-oriented product line, the Fig. 1b/1c VM configurations,
// all three checkers, and the generated artifacts — two VM DTSs, the
// platform DTS, the Bao platform config (Listing 3) and VM config
// (Listing 6), plus DTB blobs. This reproduces everything the paper's cloud
// service demo serves.
#include <iostream>

#include "core/emit.hpp"
#include "core/running_example.hpp"
#include "feature/analysis.hpp"
#include "feature/multivm.hpp"
#include "server/session.hpp"

int main() {
  using namespace llhsc;

  // 1. The feature model of Fig. 1a.
  feature::FeatureModel model = feature::running_example_model();
  smt::Solver analysis_solver;
  std::cout << "=== Feature model (Fig. 1a) ===\n";
  std::cout << "features: " << model.size() << "\n";
  std::cout << "valid products: " << feature::count_products(model, analysis_solver)
            << " (paper: 12)\n";
  std::cout << "max VMs under CPU exclusivity: "
            << feature::max_feasible_vms(model, smt::Backend::kBuiltin,
                                         core::exclusive_cpus(model))
            << " (paper: m = 2)\n\n";

  // 2. The product line: Listing 1 core + Listing 4 deltas.
  support::DiagnosticEngine diags;
  auto product_line = core::running_example_product_line(diags);
  if (product_line == nullptr) {
    std::cerr << diags.render();
    return 2;
  }
  std::cout << "=== Product line ===\n";
  std::cout << "core DTS nodes: " << product_line->core().node_count()
            << ", delta modules: " << product_line->deltas().size() << "\n";
  auto order = product_line->application_order(core::fig1b_features(), diags);
  if (order) {
    std::cout << "delta order for the veth0 VM:";
    for (const delta::DeltaModule* d : *order) std::cout << ' ' << d->name;
    std::cout << "\n\n";
  }

  // 3. Run the whole workflow for the two paper VMs: stages 1-4 as one
  // session over a store local to the run, then artifact emission.
  api::SessionRequest request = core::running_example_request();
  request.products = {{"vm1", core::fig1b_features()},
                      {"vm2", core::fig1c_features()}};
  server::ArtifactStore store;
  const server::SessionRun run = server::run_session_check(request, store);
  const core::Artifacts artifacts = core::emit(run.checked);
  const checkers::Findings findings = run.findings();
  const bool ok = run.exit_code == 0 && !artifacts.diagnostics.has_errors();

  std::cout << "=== Pipeline (Fig. 2) ===\n";
  std::cout << "status: " << (ok ? "OK" : "FAILED") << "\n";
  if (!findings.empty()) std::cout << checkers::render(findings);
  std::cout << run.error_text;
  if (artifacts.diagnostics.has_errors()) {
    std::cout << artifacts.diagnostics.render();
  }
  if (!ok) return 1;

  for (const core::EmittedVm& vm : artifacts.vms) {
    std::cout << "\n=== " << vm.name << ".dts ("
              << vm.tree->node_count() << " nodes, DTB " << vm.dtb.size()
              << " bytes) ===\n"
              << vm.dts_text;
  }
  std::cout << "\n=== platform.dts ===\n" << artifacts.platform_dts_text;
  std::cout << "\n=== platform.c (paper Listing 3) ===\n"
            << artifacts.platform_config_c;
  std::cout << "\n=== config.c (paper Listing 6) ===\n"
            << artifacts.vm_config_c;
  return 0;
}
