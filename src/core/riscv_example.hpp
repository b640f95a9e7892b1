// A second, larger platform: an RV64 "virt"-class SBC. The paper's §V notes
// the generated configurations "are compatible with SBCs that use aarch64 or
// RV64 architecture"; this fixture exercises that claim with a materially
// different hardware shape — 4 harts with interrupt controllers per hart
// context, a PLIC, a CLINT, two UARTs, virtio-mmio slots and a flash node —
// plus its own feature model and product line (hart partitioning across up
// to 4 VMs, optional virtio devices per VM).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/llhsc.hpp"
#include "delta/delta.hpp"
#include "dts/parser.hpp"
#include "feature/analysis.hpp"
#include "schema/schema.hpp"

namespace llhsc::core {

/// The RV64 core DTS (includes "rv64-cpus.dtsi" and "rv64-soc.dtsi").
[[nodiscard]] const char* riscv_core_dts();
[[nodiscard]] const char* riscv_cpus_dtsi();
[[nodiscard]] const char* riscv_soc_dtsi();

/// Delta modules: per-VM 2-hart clusters, virtio slot assignment, and
/// hardware removal for unselected features.
[[nodiscard]] const char* riscv_deltas();

[[nodiscard]] dts::SourceManager riscv_sources();

/// Feature model: 4 XOR harts (exclusive), mandatory memory/plic/clint,
/// OR uarts, optional virtio slots with hart requirements.
[[nodiscard]] feature::FeatureModel riscv_feature_model();

[[nodiscard]] std::unique_ptr<delta::ProductLine> riscv_product_line(
    support::DiagnosticEngine& diags);

/// Schema set: the builtin set extended with plic, clint, virtio-mmio and
/// cfi-flash bindings, as one YAML stream and loaded from it.
[[nodiscard]] const char* riscv_schemas_yaml();
[[nodiscard]] schema::SchemaSet riscv_schemas();

/// Exclusive resources (the harts), by feature name and by id in `model`.
[[nodiscard]] std::vector<std::string> riscv_exclusive();
[[nodiscard]] std::vector<feature::FeatureId> riscv_exclusive_harts(
    const feature::FeatureModel& model);

/// Two disjoint 2-hart VM configurations.
[[nodiscard]] std::set<std::string> riscv_vm_a_features();
[[nodiscard]] std::set<std::string> riscv_vm_b_features();

/// The platform as one product-line session request: the core with both
/// .dtsi files as in-memory includes, the deltas, the model, the schema
/// stream and the hart exclusivity, with the allocation and platform checks
/// on. The caller adds products.
[[nodiscard]] api::SessionRequest riscv_request();

}  // namespace llhsc::core
