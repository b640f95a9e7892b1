#include "core/running_example.hpp"

#include "feature/text_format.hpp"

namespace llhsc::core {

const char* running_example_core_dts() {
  return R"(/dts-v1/;

/ {
    #address-cells = <2>;
    #size-cells = <2>;

    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;
    };

    /include/ "cpus.dtsi"

    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
    };

    uart1: uart@30000000 {
        compatible = "ns16550a";
        reg = <0x0 0x30000000 0x0 0x1000>;
    };
};
)";
}

const char* running_example_cpus_dtsi() {
  return R"(cpus {
    #address-cells = <0x1>;
    #size-cells = <0x0>;

    cpu@0 {
        compatible = "arm,cortex-a53";
        device_type = "cpu";
        enable-method = "psci";
        reg = <0x0>;
    };

    cpu@1 {
        compatible = "arm,cortex-a53";
        device_type = "cpu";
        enable-method = "psci";
        reg = <0x1>;
    };
};
)";
}

const char* running_example_core_dts_with_uart_clash() {
  // The §I-A mistake: the second UART's base address collides with the
  // second memory bank [0x60000000, 0x80000000). Syntactically flawless.
  return R"(/dts-v1/;

/ {
    #address-cells = <2>;
    #size-cells = <2>;

    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;
    };

    /include/ "cpus.dtsi"

    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
    };

    uart1: uart@60000000 {
        compatible = "ns16550a";
        reg = <0x0 0x60000000 0x0 0x1000>;
    };
};
)";
}

namespace {

// Declaration order d3, d4, d1, d2 reproduces the paper's linearisations
// (d3 < d4 < d1|d2) under the declaration-order tiebreak.
constexpr const char* kDeltaD3 = R"(delta d3 when (veth0 || veth1) {
    modifies / {
        #address-cells = <1>;
        #size-cells = <1>;
        vEthernet {
            #address-cells = <1>;
            #size-cells = <1>;
        };
    }
}

)";

// d4's guard is strengthened from the paper's plain `when memory`: without
// the (veth0 || veth1) conjunct d4 would rewrite the banks to 32-bit form
// even in non-virtualised products where d3 never ran, leaving an
// inconsistent 2/2-cell tree with 2-cell reg entries.
constexpr const char* kDeltaD4 = R"(delta d4 after d3 when (memory && (veth0 || veth1)) {
    modifies memory@40000000 {
        reg = <0x40000000 0x20000000
               0x60000000 0x20000000>;
    }
}

)";

constexpr const char* kDeltasAfterD4 = R"(delta d1 after d3 when veth0 {
    adds binding vEthernet {
        veth0@80000000 {
            compatible = "veth";
            reg = <0x80000000 0x10000000>;
            id = <0>;
        };
    }
}

delta d2 after d3 when veth1 {
    adds binding vEthernet {
        veth1@70000000 {
            compatible = "veth";
            reg = <0x70000000 0x10000000>;
            id = <1>;
        };
    }
}

delta d5 after d3 when ((veth0 || veth1) && uart@20000000) {
    modifies uart@20000000 {
        reg = <0x20000000 0x1000>;
    }
}

delta d6 after d3 when ((veth0 || veth1) && uart@30000000) {
    modifies uart@30000000 {
        reg = <0x30000000 0x1000>;
    }
}

delta rm_cpu0 when !cpu@0 {
    removes cpu@0;
}

delta rm_cpu1 when !cpu@1 {
    removes cpu@1;
}

delta rm_uart0 when !uart@20000000 {
    removes uart@20000000;
}

delta rm_uart1 when !uart@30000000 {
    removes uart@30000000;
}
)";

}  // namespace

const char* running_example_deltas() {
  static const std::string text =
      std::string(kDeltaD3) + kDeltaD4 + kDeltasAfterD4;
  return text.c_str();
}

const char* running_example_deltas_without_d4() {
  static const std::string text = std::string(kDeltaD3) + kDeltasAfterD4;
  return text.c_str();
}

dts::SourceManager running_example_sources() {
  dts::SourceManager sm;
  sm.register_file("cpus.dtsi", running_example_cpus_dtsi());
  return sm;
}

namespace {

std::unique_ptr<delta::ProductLine> build_product_line(
    support::DiagnosticEngine& diags, const char* core_text,
    const char* deltas_text) {
  dts::SourceManager sm = running_example_sources();
  auto core = dts::parse_dts(core_text, "custom-sbc.dts", sm, diags);
  if (core == nullptr || diags.has_errors()) return nullptr;
  auto deltas = delta::parse_deltas(deltas_text, "custom-sbc.deltas", diags);
  if (diags.has_errors()) return nullptr;
  return std::make_unique<delta::ProductLine>(std::move(core),
                                              std::move(deltas));
}

}  // namespace

std::unique_ptr<delta::ProductLine> running_example_product_line(
    support::DiagnosticEngine& diags, bool with_uart_clash) {
  return build_product_line(diags,
                            with_uart_clash
                                ? running_example_core_dts_with_uart_clash()
                                : running_example_core_dts(),
                            running_example_deltas());
}

std::unique_ptr<delta::ProductLine> running_example_product_line_without_d4(
    support::DiagnosticEngine& diags) {
  return build_product_line(diags, running_example_core_dts(),
                            running_example_deltas_without_d4());
}

std::set<std::string> fig1b_features() {
  return {"CustomSBC", "memory",         "cpus",
          "cpu@0",     "uarts",          "uart@20000000",
          "uart@30000000", "vEthernet",  "veth0"};
}

std::set<std::string> fig1c_features() {
  return {"CustomSBC", "memory",         "cpus",
          "cpu@1",     "uarts",          "uart@20000000",
          "uart@30000000", "vEthernet",  "veth1"};
}

std::vector<std::string> running_example_exclusive() {
  return {"cpu@0", "cpu@1"};
}

std::vector<feature::FeatureId> exclusive_cpus(
    const feature::FeatureModel& model) {
  std::vector<feature::FeatureId> out;
  for (const std::string& name : running_example_exclusive()) {
    if (auto id = model.find(name)) out.push_back(*id);
  }
  return out;
}

api::SessionRequest running_example_request(const char* core_dts,
                                            const char* deltas) {
  api::SessionRequest request;
  request.core_source = core_dts;
  request.core_name = "custom-sbc.dts";
  request.includes.emplace_back("cpus.dtsi", running_example_cpus_dtsi());
  request.deltas_source = deltas;
  request.deltas_name = "custom-sbc.deltas";
  request.model_source =
      feature::print_model(feature::running_example_model());
  request.model_name = "custom-sbc.fm";
  request.exclusive = running_example_exclusive();
  request.check_allocation = true;
  request.check_platform = true;
  return request;
}

}  // namespace llhsc::core
