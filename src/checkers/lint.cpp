#include "checkers/lint.hpp"

#include <map>

#include "checkers/crossref/context.hpp"
#include "support/strings.hpp"

namespace llhsc::checkers {

namespace {

Finding warn(FindingKind kind, std::string subject, std::string message,
             std::string_view delta = {},
             support::SourceLocation location = {}) {
  Finding f;
  f.kind = kind;
  f.severity = FindingSeverity::kWarning;
  f.subject = std::move(subject);
  f.message = std::move(message);
  f.delta = std::string(delta);
  f.location = std::move(location);
  return f;
}

/// First reg entry's address under the governing cells, or nullopt.
std::optional<uint64_t> first_reg_address(const crossref::AnalysisContext& ctx,
                                          const dts::Node& node) {
  const dts::Property* reg = node.find_property("reg");
  if (reg == nullptr) return std::nullopt;
  auto cells = reg->as_cells();
  if (!cells || cells->empty()) return std::nullopt;
  const uint32_t ac = ctx.reg_cells(node).first;
  if (ac == 0 || ac > 2 || cells->size() < ac) return std::nullopt;
  return dts::combine_cells(*cells, 0, ac);
}

void lint_node(const crossref::AnalysisContext& ctx, const dts::Node& node,
               const std::string& path, Findings& out) {
  if (path != "/") {
    if (!support::is_valid_node_name(node.name())) {
      out.push_back(warn(FindingKind::kNameConvention, path,
                         "node name '" + node.name() +
                             "' violates the DT spec character set / length",
                         node.provenance(), node.location()));
    }

    const dts::Property* reg = node.find_property("reg");
    bool has_unit = !node.unit_address().empty();
    if (reg != nullptr && !has_unit) {
      out.push_back(warn(FindingKind::kUnitAddressMissing, path,
                         "node has a reg property but no unit address",
                         node.provenance(), node.location()));
    } else if (reg == nullptr && has_unit) {
      out.push_back(warn(FindingKind::kUnitAddressMissing, path,
                         "node has a unit address but no reg property",
                         node.provenance(), node.location()));
    } else if (reg != nullptr && has_unit) {
      auto addr = first_reg_address(ctx, node);
      auto unit = support::parse_integer(
          "0x" + std::string(node.unit_address()));
      if (addr && unit && *addr != *unit) {
        Finding f = warn(
            FindingKind::kUnitAddressMismatch, path,
            "unit address @" + std::string(node.unit_address()) +
                " does not match the first reg address " +
                support::hex(*addr),
            !reg->provenance.empty() ? reg->provenance : node.provenance(),
            reg->location.valid() ? reg->location : node.location());
        f.base_a = *unit;
        f.base_b = *addr;
        out.push_back(std::move(f));
      }
      // dtc also rejects leading zeros / "0x" prefixes in unit addresses.
      std::string_view ua = node.unit_address();
      if (ua.size() > 1 && (ua[0] == '0')) {
        out.push_back(warn(FindingKind::kNameConvention, path,
                           "unit address '@" + std::string(ua) +
                               "' has a leading zero or 0x prefix",
                           node.provenance(), node.location()));
      }
    }
  }

  for (const dts::Property& p : node.properties()) {
    if (!support::is_valid_property_name(p.name)) {
      out.push_back(warn(FindingKind::kNameConvention, path,
                         "property name '" + p.name +
                             "' violates the DT spec character set / length",
                         !p.provenance.empty() ? p.provenance
                                               : node.provenance(),
                         p.location.valid() ? p.location
                                            : node.location()));
    }
  }

  if (const dts::Property* status = node.find_property("status")) {
    auto v = status->as_string();
    bool ok = v && (*v == "okay" || *v == "ok" || *v == "disabled" ||
                    *v == "reserved" || support::starts_with(*v, "fail"));
    if (!ok) {
      out.push_back(warn(FindingKind::kBadStatusValue, path,
                         "status must be okay/disabled/reserved/fail*, got " +
                             (v ? "\"" + *v + "\"" : "a non-string value"),
                         !status->provenance.empty() ? status->provenance
                                                     : node.provenance(),
                         status->location.valid() ? status->location
                                                  : node.location()));
    }
  }

  // Children-level checks.
  bool child_has_address_reg = false;
  for (const auto& child : node.children()) {
    const dts::Property* reg = child->find_property("reg");
    if (reg != nullptr && reg->as_cells() && !reg->as_cells()->empty()) {
      child_has_address_reg = true;
      break;
    }
  }
  if (child_has_address_reg &&
      node.find_property("#address-cells") == nullptr && path != "/") {
    out.push_back(
        warn(FindingKind::kMissingCells, path,
             "children use reg but this node declares no #address-cells "
             "(cells are inherited, which dtc flags as fragile)",
             node.provenance(), node.location()));
  }

  // Duplicate unit addresses among same-named siblings.
  std::map<std::string, std::string> seen;  // name -> path of first holder
  for (const auto& child : node.children()) {
    if (child->unit_address().empty()) continue;
    std::string key = std::string(child->base_name()) + "@" +
                      std::string(child->unit_address());
    const std::string& child_path = ctx.path_of(*child);
    auto [it, inserted] = seen.emplace(key, child_path);
    if (!inserted) {
      Finding f = warn(FindingKind::kDuplicateUnitAddress, child_path,
                       "duplicate unit address with sibling",
                       child->provenance(), child->location());
      f.other_subject = it->second;
      out.push_back(std::move(f));
    }
  }
}

/// /aliases values and /chosen stdout-path must point at existing nodes.
void lint_path_references(const dts::Tree& tree, Findings& out) {
  auto check_path_property = [&](const dts::Node& node,
                                 const std::string& node_path,
                                 const dts::Property& p) {
    auto value = p.as_string();
    if (!value) return;
    // stdout-path may carry ":115200n8"-style suffixes after the path.
    std::string target = *value;
    size_t colon = target.find(':');
    if (colon != std::string::npos) target = target.substr(0, colon);
    if (target.empty() || target[0] != '/') return;  // alias-name form
    if (tree.find(target) == nullptr) {
      out.push_back(warn(FindingKind::kUnitAddressMissing, node_path,
                         "property '" + p.name + "' points at missing node " +
                             target,
                         !p.provenance.empty() ? p.provenance
                                               : node.provenance(),
                         p.location.valid() ? p.location : node.location()));
    }
  };
  if (const dts::Node* aliases = tree.find("/aliases")) {
    for (const dts::Property& p : aliases->properties()) {
      check_path_property(*aliases, "/aliases", p);
    }
  }
  if (const dts::Node* chosen = tree.find("/chosen")) {
    for (const dts::Property& p : chosen->properties()) {
      if (p.name == "stdout-path" || p.name == "linux,stdout-path") {
        check_path_property(*chosen, "/chosen", p);
      }
    }
  }
}

}  // namespace

Findings LintChecker::check(const dts::Tree& tree) const {
  return check(crossref::AnalysisContext(tree));
}

Findings LintChecker::check(const crossref::AnalysisContext& ctx) const {
  Findings out;
  for (const auto& [path, node] : ctx.nodes()) {
    lint_node(ctx, *node, path, out);
  }
  lint_path_references(ctx.tree(), out);
  return out;
}

}  // namespace llhsc::checkers
