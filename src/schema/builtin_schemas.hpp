// Builtin binding schemas for the paper's running example (CustomSBC):
// memory (Listing 5), cpus/cpu (Listing 2), UART serial devices and the
// virtual Ethernet (veth) devices introduced by the product line (§III).
// They are written once, as the dt-schema-style YAML stream llhsc extracts
// its syntactic constraints from (§IV-B), and loaded through the same
// loader as a --schemas file.
#pragma once

#include "schema/schema.hpp"

namespace llhsc::schema {

/// The builtin bindings as a "---"-separated YAML stream (also usable as
/// on-disk seed files for --schemas):
///   memory: device_type const "memory", reg required with 1..1024 entries;
///   cpus: #address-cells/#size-cells required, at least one cpu@* child;
///   cpu: compatible, device_type const "cpu", enable-method enum, reg;
///   uart: ns16550a-style UART, compatible + reg required;
///   veth: virtual Ethernet device (§III-A), compatible const "veth", reg
///         and id required.
[[nodiscard]] const char* builtin_schemas_yaml();

/// builtin_schemas_yaml(), parsed once per process on first use.
[[nodiscard]] const SchemaSet& builtin_schemas();

}  // namespace llhsc::schema
