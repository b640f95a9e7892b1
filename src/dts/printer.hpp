// DTS pretty-printer: renders a Tree back to DeviceTree source in one
// fixed layout (a /dts-v1/; header, four-space indents, hexadecimal cells).
// Output is stable (property and child order preserved) and round-trips
// through the parser — the product-line engine emits its generated DTSs
// through this.
#pragma once

#include <string>

#include "dts/tree.hpp"

namespace llhsc::dts {

[[nodiscard]] std::string print_dts(const Tree& tree);
[[nodiscard]] std::string print_node(const Node& node, int depth = 0);
[[nodiscard]] std::string print_property(const Property& property);

}  // namespace llhsc::dts
