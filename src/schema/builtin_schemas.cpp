#include "schema/builtin_schemas.hpp"

#include <cstdio>
#include <cstdlib>

#include "schema/yaml_lite.hpp"

namespace llhsc::schema {

const char* builtin_schemas_yaml() {
  return R"yaml($id: memory
description: Common memory node (paper Listing 5)
select:
  nodeName: "memory@*"
properties:
  device_type:
    type: string
    const: memory
  reg:
    type: cells
    minItems: 1
    maxItems: 1024
required:
  - device_type
  - reg
---
$id: cpus
description: CPU cluster container
select:
  nodeName: cpus
properties:
  "#address-cells":
    type: cells
    const: 1
  "#size-cells":
    type: cells
    const: 0
required:
  - "#address-cells"
  - "#size-cells"
regShapeCheck: false
children:
  - pattern: "cpu@*"
    schema: cpu
    minCount: 1
---
$id: cpu
description: Processor core binding (paper Listing 2)
select:
  nodeName: "cpu@*"
properties:
  compatible:
    type: string
    enum:
      - arm,cortex-a53
      - arm,cortex-a72
      - riscv
  device_type:
    type: string
    const: cpu
  enable-method:
    type: string
    enum:
      - psci
      - spin-table
  reg:
    type: cells
    minItems: 1
    maxItems: 1
required:
  - compatible
  - device_type
  - reg
# A cpu reg is a core index, not an address range: no reg-shape rule.
regShapeCheck: false
---
$id: uart
description: Serial I/O port
select:
  nodeName: "uart@*"
  compatible:
    - ns16550a
    - arm,pl011
properties:
  compatible:
    type: string
    enum:
      - ns16550a
      - arm,pl011
      - sifive,uart0
  reg:
    type: cells
    minItems: 1
    maxItems: 1
required:
  - compatible
  - reg
---
$id: veth
description: Virtual Ethernet device for VM communication (paper Listing 4)
select:
  nodeName: "veth*"
  compatible: veth
properties:
  compatible:
    type: string
    const: veth
  reg:
    type: cells
    minItems: 1
    maxItems: 1
  id:
    type: cells
    enum:
      - 0
      - 1
      - 2
      - 3
required:
  - compatible
  - reg
  - id
)yaml";
}

const SchemaSet& builtin_schemas() {
  static const SchemaSet set = [] {
    SchemaSet loaded;
    support::DiagnosticEngine diags;
    load_schema_stream(builtin_schemas_yaml(), loaded, diags, "<builtin>");
    if (diags.has_errors()) {  // the stream is a compile-time constant
      std::fputs(diags.render().c_str(), stderr);
      std::abort();
    }
    return loaded;
  }();
  return set;
}

}  // namespace llhsc::schema
