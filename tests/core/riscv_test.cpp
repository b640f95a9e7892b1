// The RV64 virt-class platform — the §V generality claim ("compatible with
// SBCs that use aarch64 or RV64 architecture") exercised on a materially
// different hardware shape: 4 harts, PLIC/CLINT, virtio-mmio, flash.
#include "core/riscv_example.hpp"

#include <gtest/gtest.h>

#include "checkers/lint.hpp"
#include "checkers/report.hpp"
#include "checkers/semantic.hpp"
#include "checkers/syntactic.hpp"
#include "core/emit.hpp"
#include "fdt/fdt.hpp"
#include "feature/multivm.hpp"
#include "server/session.hpp"

namespace llhsc::core {
namespace {

/// The session's verdict and stage 5's artifacts of one run (the Fig. 2
/// workflow over a store local to the run).
struct Result : Artifacts {
  bool ok = false;
  checkers::Findings findings;
  std::string error_text;
};

Result run_workflow(std::vector<api::SessionProduct> vms) {
  api::SessionRequest request = riscv_request();
  request.products = std::move(vms);
  server::ArtifactStore store;
  const server::SessionRun run = server::run_session_check(request, store);
  Result result;
  static_cast<Artifacts&>(result) = emit(run.checked);
  result.findings = run.findings();
  result.error_text = run.error_text + result.diagnostics.render();
  result.ok = run.exit_code == 0 && !result.diagnostics.has_errors();
  return result;
}

TEST(RiscvExample, CoreDtsParses) {
  support::DiagnosticEngine diags;
  dts::SourceManager sm = riscv_sources();
  auto tree = dts::parse_dts(riscv_core_dts(), "rv64.dts", sm, diags);
  ASSERT_NE(tree, nullptr);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  EXPECT_NE(tree->find("/cpus/cpu@3"), nullptr);
  EXPECT_NE(tree->find("/soc/plic@c000000"), nullptr);
  EXPECT_NE(tree->find("/soc/clint@2000000"), nullptr);
  EXPECT_NE(tree->find("/soc/virtio@10009000"), nullptr);
  // interrupt-parent refs resolved to the plic's phandle.
  auto plic_phandle =
      tree->find("/soc/plic@c000000")->find_property("phandle");
  ASSERT_NE(plic_phandle, nullptr);
  auto uart_parent = tree->find("/soc/uart@10000000")
                         ->find_property("interrupt-parent")->as_u32();
  EXPECT_EQ(uart_parent, plic_phandle->as_u32());
}

TEST(RiscvExample, ModelHas360Products) {
  feature::FeatureModel m = riscv_feature_model();
  smt::Solver solver;
  // harts OR (15) x flash (2) x uarts OR (3) x virtio (1 + 3) = 360.
  EXPECT_EQ(feature::count_products(m, solver), 360u);
}

TEST(RiscvExample, ProductCountMatchesBruteForce) {
  feature::FeatureModel m = riscv_feature_model();
  uint64_t brute = 0;
  for (uint32_t mask = 0; mask < (1u << m.size()); ++mask) {
    feature::Selection sel(m.size());
    for (uint32_t i = 0; i < m.size(); ++i) sel[i] = (mask >> i) & 1;
    if (m.is_consistent_selection(sel)) ++brute;
  }
  EXPECT_EQ(brute, 360u);
}

TEST(RiscvExample, MaxVmsIsFour) {
  feature::FeatureModel m = riscv_feature_model();
  auto harts = riscv_exclusive_harts(m);
  ASSERT_EQ(harts.size(), 4u);
  EXPECT_EQ(feature::max_feasible_vms(m, smt::Backend::kBuiltin, harts), 4);
}

TEST(RiscvExample, HealthyCorePassesAllCheckers) {
  support::DiagnosticEngine diags;
  dts::SourceManager sm = riscv_sources();
  auto tree = dts::parse_dts(riscv_core_dts(), "rv64.dts", sm, diags);
  ASSERT_NE(tree, nullptr);

  schema::SchemaSet schemas = riscv_schemas();
  checkers::SyntacticChecker syn(schemas);
  checkers::Findings f = syn.check(*tree);
  EXPECT_EQ(checkers::error_count(f), 0u) << checkers::render(f);

  checkers::SemanticChecker sem;
  checkers::Findings sf = sem.check(*tree);
  EXPECT_EQ(checkers::error_count(sf), 0u) << checkers::render(sf);

  checkers::Findings lf = checkers::LintChecker().check(*tree);
  EXPECT_TRUE(lf.empty()) << checkers::render(lf);
}

TEST(RiscvExample, SchemaViolationsDetected) {
  support::DiagnosticEngine diags;
  dts::SourceManager sm = riscv_sources();
  auto tree = dts::parse_dts(riscv_core_dts(), "rv64.dts", sm, diags);
  ASSERT_NE(tree, nullptr);
  // Corrupt the plic: wrong #interrupt-cells (const 1) and out-of-range ndev.
  dts::Node* plic = tree->find("/soc/plic@c000000");
  plic->set_property(dts::Property::cells("#interrupt-cells", {2}));
  plic->set_property(dts::Property::cells("riscv,ndev", {5000}));
  schema::SchemaSet schemas = riscv_schemas();
  checkers::SyntacticChecker syn(schemas);
  checkers::Findings f = syn.check(*tree);
  EXPECT_TRUE(checkers::contains(f, checkers::FindingKind::kConstMismatch))
      << checkers::render(f);
  EXPECT_TRUE(checkers::contains(f, checkers::FindingKind::kEnumViolation))
      << checkers::render(f);
}

TEST(RiscvExample, InterruptCollisionDetected) {
  support::DiagnosticEngine diags;
  dts::SourceManager sm = riscv_sources();
  auto tree = dts::parse_dts(riscv_core_dts(), "rv64.dts", sm, diags);
  ASSERT_NE(tree, nullptr);
  // Point virtio1 at uart0's interrupt line.
  tree->find("/soc/virtio@10009000")
      ->set_property(dts::Property::cells("interrupts", {10}));
  checkers::SemanticChecker sem;
  checkers::Findings f = sem.check(*tree);
  EXPECT_TRUE(
      checkers::contains(f, checkers::FindingKind::kInterruptCollision))
      << checkers::render(f);
}

TEST(RiscvExample, PipelineTwoVmPartitioning) {
  Result result = run_workflow(
      {{"vma", riscv_vm_a_features()}, {"vmb", riscv_vm_b_features()}});
  EXPECT_TRUE(result.ok) << checkers::render(result.findings)
                         << result.error_text;
  ASSERT_EQ(result.vms.size(), 2u);

  // VM A: harts 0+1, uart0, virtio0, no flash.
  const dts::Tree& a = *result.vms[0].tree;
  EXPECT_NE(a.find("/cpus/cpu@0"), nullptr);
  EXPECT_NE(a.find("/cpus/cpu@1"), nullptr);
  EXPECT_EQ(a.find("/cpus/cpu@2"), nullptr);
  EXPECT_NE(a.find("/soc/uart@10000000"), nullptr);
  EXPECT_EQ(a.find("/soc/uart@10001000"), nullptr);
  EXPECT_NE(a.find("/soc/virtio@10008000"), nullptr);
  EXPECT_EQ(a.find("/soc/flash@20000000"), nullptr);
  EXPECT_NE(a.find("/chosen"), nullptr) << "guest_header delta applied";

  // VM B: harts 2+3, uart1, virtio1, flash.
  const dts::Tree& b = *result.vms[1].tree;
  EXPECT_EQ(b.find("/cpus/cpu@0"), nullptr);
  EXPECT_NE(b.find("/cpus/cpu@3"), nullptr);
  EXPECT_NE(b.find("/soc/flash@20000000"), nullptr);

  // Bao configs: affinities 0b0011 and 0b1100.
  EXPECT_EQ(result.vms[0].config.cpu_affinity, 0b0011u);
  EXPECT_EQ(result.vms[1].config.cpu_affinity, 0b1100u);
  EXPECT_EQ(result.vms[0].config.cpu_num, 2u);
  EXPECT_EQ(result.platform_config.cpu_num, 4u);

  // DTBs verify.
  support::DiagnosticEngine de;
  EXPECT_TRUE(fdt::verify(result.vms[0].dtb, de)) << de.render();
  EXPECT_TRUE(fdt::verify(result.vms[1].dtb, de)) << de.render();
}

TEST(RiscvExample, SameHartTwiceIsRejected) {
  auto overlapping = riscv_vm_a_features();
  overlapping.insert("hart2");  // steals a hart VM B owns
  Result result =
      run_workflow({{"vma", overlapping}, {"vmb", riscv_vm_b_features()}});
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(checkers::contains(result.findings,
                                 checkers::FindingKind::kExclusivityViolation))
      << checkers::render(result.findings);
}

TEST(RiscvExample, FiveVmsInfeasible) {
  feature::FeatureModel model = riscv_feature_model();
  EXPECT_FALSE(feature::allocation_feasible(model, smt::Backend::kBuiltin, 5,
                                            riscv_exclusive_harts(model)));
}

}  // namespace
}  // namespace llhsc::core
