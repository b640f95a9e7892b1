#include "core/emit.hpp"

#include "dts/printer.hpp"
#include "fdt/fdt.hpp"
#include "obs/obs.hpp"

namespace llhsc::core {

Artifacts emit(const std::vector<CheckedUnit>& units) {
  Artifacts out;
  std::vector<baogen::VmConfig> vm_configs;
  for (const CheckedUnit& unit : units) {
    if (unit.tree == nullptr) continue;
    const dts::Tree& tree = *unit.tree;
    obs::ScopedUnit unit_guard(unit.name);
    obs::ScopedScope scope_guard("emit");
    obs::Span span("stage.emit", "stage");
    std::string dts_text = dts::print_dts(tree);
    std::vector<uint8_t> dtb;
    if (auto blob = fdt::emit(tree, out.diagnostics)) dtb = std::move(*blob);
    if (unit.name == "platform") {
      out.platform_tree = unit.tree;
      out.platform_dts_text = std::move(dts_text);
      out.platform_dtb = std::move(dtb);
      out.platform_config = baogen::extract_platform(tree, out.diagnostics);
      out.platform_config_c = baogen::render_platform_c(out.platform_config);
      continue;
    }
    EmittedVm vm;
    vm.name = unit.name;
    vm.tree = unit.tree;
    vm.dts_text = std::move(dts_text);
    vm.dtb = std::move(dtb);
    vm.config = baogen::extract_vm(tree, unit.name, out.diagnostics);
    baogen::QemuOptions qemu;
    qemu.kernel_image = unit.name + "image.bin";
    qemu.dtb_path = unit.name + ".dtb";
    vm.qemu_command = baogen::render_qemu_command(vm.config, qemu);
    vm_configs.push_back(vm.config);
    out.vms.push_back(std::move(vm));
  }
  out.vm_config_c =
      baogen::render_config_c(baogen::assemble_config(std::move(vm_configs)));
  return out;
}

}  // namespace llhsc::core
