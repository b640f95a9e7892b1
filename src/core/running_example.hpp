// The paper's running example (CustomSBC), reconstructed once and shared by
// tests, examples and benchmarks: core DTS (Listing 1 + Listing 2 via
// cpus.dtsi), delta modules (Listing 4 plus the removal/rewrite deltas a
// complete product line needs), feature model (Fig. 1a), VM configurations
// (Fig. 1b / 1c) and the two fault-injected variants used in §I-A and §IV-C.
// Every input is also text, so the whole example is one session request.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/llhsc.hpp"
#include "delta/delta.hpp"
#include "dts/parser.hpp"
#include "feature/analysis.hpp"

namespace llhsc::core {

/// Listing 1 — the core DTS (includes "cpus.dtsi").
[[nodiscard]] const char* running_example_core_dts();
/// Listing 2 — the cluster binding included by the core DTS.
[[nodiscard]] const char* running_example_cpus_dtsi();
/// Listing 1 with the §I-A fault injected: the second UART's base address
/// clashes with the second memory bank (0x60000000).
[[nodiscard]] const char* running_example_core_dts_with_uart_clash();

/// Listing 4 — the delta modules in the delta language. Beyond the paper's
/// d1..d4, the complete product line needs: d5/d6 (rewrite UART regs to
/// 32-bit addressing once d3 switches the root cells — the paper's deltas
/// leave the UARTs stale, which its own semantic checker would reject) and
/// rm_* deltas removing unselected hardware from each VM's DTS.
[[nodiscard]] const char* running_example_deltas();
/// The same file with delta d4 omitted — the §IV-C scenario: d3 truncates
/// the address width but nobody rewrites the memory banks.
[[nodiscard]] const char* running_example_deltas_without_d4();

/// A SourceManager preloaded with cpus.dtsi.
[[nodiscard]] dts::SourceManager running_example_sources();

/// Parses the core (optionally the fault-injected variant) and the deltas
/// into a ProductLine. Returns nullptr on (unexpected) parse errors.
[[nodiscard]] std::unique_ptr<delta::ProductLine> running_example_product_line(
    support::DiagnosticEngine& diags, bool with_uart_clash = false);

/// Variant over running_example_deltas_without_d4(): the generated DTS has
/// four 32-bit banks colliding at 0x0.
[[nodiscard]] std::unique_ptr<delta::ProductLine>
running_example_product_line_without_d4(support::DiagnosticEngine& diags);

/// Fig. 1b — VM 1 features: cpu@0, both UARTs, veth0.
[[nodiscard]] std::set<std::string> fig1b_features();
/// Fig. 1c — VM 2 features: cpu@1, both UARTs, veth1.
[[nodiscard]] std::set<std::string> fig1c_features();

/// The exclusive resources of the running example (the CPU cores), by
/// feature name and by id in `model`.
[[nodiscard]] std::vector<std::string> running_example_exclusive();
[[nodiscard]] std::vector<feature::FeatureId> exclusive_cpus(
    const feature::FeatureModel& model);

/// The running example as one product-line session request (the Fig. 2
/// workflow, server::run_session_check): `core_dts` with cpus.dtsi as an
/// in-memory include, `deltas`, the Fig. 1a model and the CPU exclusivity,
/// with the allocation and platform checks on. The caller adds products.
[[nodiscard]] api::SessionRequest running_example_request(
    const char* core_dts = running_example_core_dts(),
    const char* deltas = running_example_deltas());

}  // namespace llhsc::core
