// Stage 5 of the Fig. 2 workflow: artifact emission (paper §V). A
// product-line check (server::run_session_check) derives and checks one
// tree per VM plus the platform tree; emission turns those trees into what
// the cloud service serves — DTS text, DTB blobs, the Bao platform config
// (Listing 3), the Bao VM config (Listing 6) and one QEMU invocation per VM.
// It reads the trees only, so it runs the same over fresh and cached ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baogen/baogen.hpp"
#include "checkers/finding.hpp"
#include "dts/tree.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::core {

/// One unit of a product-line check, in unit order: a VM's derived tree,
/// the platform's (named "platform"), or a tree-less unit ("*" allocation,
/// "*lifted*", "*graph*", a product whose derive failed).
struct CheckedUnit {
  std::string name;
  std::shared_ptr<const dts::Tree> tree;  // null for a tree-less unit
  checkers::Findings findings;
};

struct EmittedVm {
  std::string name;
  std::shared_ptr<const dts::Tree> tree;
  std::string dts_text;
  std::vector<uint8_t> dtb;
  baogen::VmConfig config;
  /// §V: the QEMU invocation equivalent to this VM's configuration.
  std::string qemu_command;
};

struct Artifacts {
  std::vector<EmittedVm> vms;  // unit order
  std::shared_ptr<const dts::Tree> platform_tree;
  std::string platform_dts_text;
  std::vector<uint8_t> platform_dtb;
  baogen::PlatformConfig platform_config;
  std::string platform_config_c;  // Listing 3
  std::string vm_config_c;        // Listing 6
  /// DTB and Bao extraction problems, in unit order.
  support::DiagnosticEngine diagnostics;
};

/// Emits every unit that has a tree, in unit order, each under a
/// `stage.emit` span (scope "emit") carrying the unit's name, then
/// assembles the VM config over the VMs.
[[nodiscard]] Artifacts emit(const std::vector<CheckedUnit>& units);

}  // namespace llhsc::core
