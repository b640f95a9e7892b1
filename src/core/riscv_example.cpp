#include "core/riscv_example.hpp"

#include "feature/text_format.hpp"
#include "schema/builtin_schemas.hpp"
#include "schema/yaml_lite.hpp"

namespace llhsc::core {

const char* riscv_core_dts() {
  return R"(/dts-v1/;

/ {
    #address-cells = <2>;
    #size-cells = <2>;
    compatible = "riscv-virtio";
    model = "llhsc,rv64-virt";

    memory@80000000 {
        device_type = "memory";
        reg = <0x0 0x80000000 0x0 0x40000000>;
    };

    /include/ "rv64-cpus.dtsi"

    /include/ "rv64-soc.dtsi"
};
)";
}

const char* riscv_cpus_dtsi() {
  return R"(cpus {
    #address-cells = <0x1>;
    #size-cells = <0x0>;
    timebase-frequency = <10000000>;

    cpu@0 {
        device_type = "cpu";
        compatible = "riscv";
        reg = <0x0>;
        riscv,isa = "rv64imafdc";
        mmu-type = "riscv,sv48";
        status = "okay";
    };

    cpu@1 {
        device_type = "cpu";
        compatible = "riscv";
        reg = <0x1>;
        riscv,isa = "rv64imafdc";
        mmu-type = "riscv,sv48";
        status = "okay";
    };

    cpu@2 {
        device_type = "cpu";
        compatible = "riscv";
        reg = <0x2>;
        riscv,isa = "rv64imafdc";
        mmu-type = "riscv,sv48";
        status = "okay";
    };

    cpu@3 {
        device_type = "cpu";
        compatible = "riscv";
        reg = <0x3>;
        riscv,isa = "rv64imafdc";
        mmu-type = "riscv,sv48";
        status = "okay";
    };
};
)";
}

const char* riscv_soc_dtsi() {
  return R"(soc {
    #address-cells = <2>;
    #size-cells = <2>;
    compatible = "simple-bus";
    ranges;

    clint@2000000 {
        compatible = "riscv,clint0";
        reg = <0x0 0x2000000 0x0 0x10000>;
    };

    plic: plic@c000000 {
        compatible = "riscv,plic0";
        reg = <0x0 0xc000000 0x0 0x4000000>;
        interrupt-controller;
        #interrupt-cells = <1>;
        riscv,ndev = <53>;
    };

    uart0: uart@10000000 {
        compatible = "ns16550a";
        reg = <0x0 0x10000000 0x0 0x100>;
        clock-frequency = <3686400>;
        interrupt-parent = <&plic>;
        interrupts = <10>;
    };

    uart1: uart@10001000 {
        compatible = "ns16550a";
        reg = <0x0 0x10001000 0x0 0x100>;
        clock-frequency = <3686400>;
        interrupt-parent = <&plic>;
        interrupts = <11>;
    };

    virtio0: virtio@10008000 {
        compatible = "virtio,mmio";
        reg = <0x0 0x10008000 0x0 0x1000>;
        interrupt-parent = <&plic>;
        interrupts = <1>;
    };

    virtio1: virtio@10009000 {
        compatible = "virtio,mmio";
        reg = <0x0 0x10009000 0x0 0x1000>;
        interrupt-parent = <&plic>;
        interrupts = <2>;
    };

    flash@20000000 {
        compatible = "cfi-flash";
        reg = <0x0 0x20000000 0x0 0x2000000>;
        bank-width = <4>;
    };
};
)";
}

const char* riscv_deltas() {
  // Pure removal product line: the core carries all hardware; each delta
  // strips what the selected configuration does not own.
  return R"(delta rm_hart0 when !hart0 { removes cpu@0; }
delta rm_hart1 when !hart1 { removes cpu@1; }
delta rm_hart2 when !hart2 { removes cpu@2; }
delta rm_hart3 when !hart3 { removes cpu@3; }
delta rm_uart0 when !uart@10000000 { removes uart@10000000; }
delta rm_uart1 when !uart@10001000 { removes uart@10001000; }
delta rm_virtio0 when !virtio@10008000 { removes virtio@10008000; }
delta rm_virtio1 when !virtio@10009000 { removes virtio@10009000; }
delta rm_flash when !flash { removes flash@20000000; }

delta stdout0 when uart@10000000 {
    modifies / {
        chosen {
            stdout-path = "/soc/uart@10000000";
        };
    }
}

delta stdout1 when (uart@10001000 && !uart@10000000) {
    modifies / {
        chosen {
            stdout-path = "/soc/uart@10001000";
        };
    }
}
)";
}

dts::SourceManager riscv_sources() {
  dts::SourceManager sm;
  sm.register_file("rv64-cpus.dtsi", riscv_cpus_dtsi());
  sm.register_file("rv64-soc.dtsi", riscv_soc_dtsi());
  return sm;
}

feature::FeatureModel riscv_feature_model() {
  feature::FeatureModel m;
  feature::FeatureId root = m.add_root("RV64Virt");
  m.add_feature(root, "memory", /*mandatory=*/true);

  // Harts form an OR group: every configuration owns at least one, and a VM
  // may own several (the exclusivity across VMs is per-hart, §IV-A).
  feature::FeatureId cpus = m.add_feature(root, "cpus", true);
  m.set_group(cpus, feature::GroupKind::kOr);
  for (int i = 0; i < 4; ++i) {
    m.add_feature(cpus, "hart" + std::to_string(i));
  }

  feature::FeatureId soc = m.add_feature(root, "soc", true, /*abstract=*/true);
  m.add_feature(soc, "plic", /*mandatory=*/true);
  m.add_feature(soc, "clint", /*mandatory=*/true);
  m.add_feature(soc, "flash");

  feature::FeatureId uarts = m.add_feature(root, "uarts", true, true);
  m.set_group(uarts, feature::GroupKind::kOr);
  m.add_feature(uarts, "uart@10000000");
  m.add_feature(uarts, "uart@10001000");

  feature::FeatureId virtio = m.add_feature(root, "virtio", false, true);
  m.set_group(virtio, feature::GroupKind::kOr);
  m.add_feature(virtio, "virtio@10008000");
  m.add_feature(virtio, "virtio@10009000");
  return m;
}

std::unique_ptr<delta::ProductLine> riscv_product_line(
    support::DiagnosticEngine& diags) {
  dts::SourceManager sm = riscv_sources();
  auto core = dts::parse_dts(riscv_core_dts(), "rv64-virt.dts", sm, diags);
  if (core == nullptr || diags.has_errors()) return nullptr;
  auto deltas = delta::parse_deltas(riscv_deltas(), "rv64-virt.deltas", diags);
  if (diags.has_errors()) return nullptr;
  return std::make_unique<delta::ProductLine>(std::move(core),
                                              std::move(deltas));
}

namespace {

// The riscv bindings in the YAML subset (schema/yaml_lite.hpp).
constexpr const char* kRiscvBindingsYaml = R"yaml($id: plic
description: RISC-V platform-level interrupt controller
select:
  nodeName: "plic@*"
  compatible: riscv,plic0
properties:
  compatible:
    type: string
    enum:
      - riscv,plic0
      - sifive,plic-1.0.0
  reg:
    type: cells
    minItems: 1
    maxItems: 1
  "#interrupt-cells":
    type: cells
    const: 1
  interrupt-controller:
    type: bool
  riscv,ndev:
    type: cells
    minimum: 1
    maximum: 1023
required:
  - compatible
  - reg
  - "#interrupt-cells"
  - interrupt-controller
---
$id: clint
description: RISC-V core-local interruptor
select:
  nodeName: "clint@*"
  compatible: riscv,clint0
properties:
  compatible:
    type: string
    enum:
      - riscv,clint0
      - sifive,clint0
  reg:
    type: cells
    minItems: 1
    maxItems: 1
required:
  - compatible
  - reg
---
$id: virtio-mmio
description: virtio transport over MMIO
select:
  nodeName: "virtio@*"
  compatible: virtio,mmio
properties:
  compatible:
    type: string
    const: virtio,mmio
  reg:
    type: cells
    minItems: 1
    maxItems: 1
  interrupts:
    type: cells
    minimum: 1
    maximum: 53  # within the plic's riscv,ndev
required:
  - compatible
  - reg
  - interrupts
---
$id: cfi-flash
description: parallel NOR flash
select:
  nodeName: "flash@*"
  compatible: cfi-flash
properties:
  compatible:
    type: string
    const: cfi-flash
  reg:
    type: cells
    minItems: 1
    maxItems: 2
  bank-width:
    type: cells
    enum:
      - 1
      - 2
      - 4
required:
  - compatible
  - reg
)yaml";

}  // namespace

const char* riscv_schemas_yaml() {
  static const std::string text =
      std::string(schema::builtin_schemas_yaml()) + "---\n" +
      kRiscvBindingsYaml;
  return text.c_str();
}

schema::SchemaSet riscv_schemas() {
  schema::SchemaSet set;
  support::DiagnosticEngine diags;
  schema::load_schema_stream(riscv_schemas_yaml(), set, diags);
  return set;
}

std::vector<std::string> riscv_exclusive() {
  return {"hart0", "hart1", "hart2", "hart3"};
}

std::vector<feature::FeatureId> riscv_exclusive_harts(
    const feature::FeatureModel& model) {
  std::vector<feature::FeatureId> out;
  for (const std::string& name : riscv_exclusive()) {
    if (auto id = model.find(name)) out.push_back(*id);
  }
  return out;
}

std::set<std::string> riscv_vm_a_features() {
  return {"RV64Virt", "memory",          "cpus",
          "hart0",    "hart1",           "soc",
          "plic",     "clint",           "uarts",
          "uart@10000000", "virtio",     "virtio@10008000"};
}

std::set<std::string> riscv_vm_b_features() {
  return {"RV64Virt", "memory",          "cpus",
          "hart2",    "hart3",           "soc",
          "plic",     "clint",           "uarts",
          "uart@10001000", "virtio",     "virtio@10009000",
          "flash"};
}

api::SessionRequest riscv_request() {
  api::SessionRequest request;
  request.core_source = riscv_core_dts();
  request.core_name = "rv64-virt.dts";
  request.includes = {{"rv64-cpus.dtsi", riscv_cpus_dtsi()},
                      {"rv64-soc.dtsi", riscv_soc_dtsi()}};
  request.deltas_source = riscv_deltas();
  request.deltas_name = "rv64-virt.deltas";
  request.model_source = feature::print_model(riscv_feature_model());
  request.model_name = "rv64-virt.fm";
  request.exclusive = riscv_exclusive();
  request.schemas_text = riscv_schemas_yaml();
  request.check_allocation = true;
  request.check_platform = true;
  return request;
}

}  // namespace llhsc::core
