#include "checkers/crossref/rules.hpp"

#include <unordered_set>

#include "support/strings.hpp"

namespace llhsc::checkers::crossref {

namespace {

/// emit_finding() anchored at `prop` of `node`, or at the node itself when
/// `prop` is null.
Finding* emit_at(const CrossRefOptions& options, Findings& out,
                 std::string_view id, std::string subject, std::string message,
                 const dts::Node& node, const dts::Property* prop) {
  const bool has_prop = prop != nullptr;
  return emit_finding(
      options, out, id, std::move(subject), std::move(message),
      has_prop && prop->location.valid() ? prop->location : node.location(),
      (has_prop && !prop->provenance.empty() ? prop->provenance
                                             : node.provenance())
          .str(),
      has_prop ? prop->name.str() : std::string());
}

/// `interrupts` edges route through the interrupt parent; every other edge
/// decodes one phandle+args entry.
bool is_interrupts_edge(const graph::Edge& e) {
  return e.property == "interrupts";
}

// ---------------------------------------------------------------------------
// phandle-duplicate
// ---------------------------------------------------------------------------
void run_phandle_duplicate(const AnalysisContext& ctx,
                           const CrossRefOptions& options, Findings& out) {
  for (const PhandleCollision& col : ctx.duplicate_phandles()) {
    // Report every extra holder against the first one (document order).
    const dts::Node* first = col.holders.front();
    for (size_t i = 1; i < col.holders.size(); ++i) {
      const dts::Node* dup = col.holders[i];
      Finding* f = emit_at(options, out, "phandle-duplicate",
                           ctx.path_of(*dup),
                           "phandle value " + std::to_string(col.value) +
                               " is also carried by " + ctx.path_of(*first),
                           *dup, dup->find_property("phandle"));
      if (f != nullptr) f->other_subject = ctx.path_of(*first);
    }
  }
}

// ---------------------------------------------------------------------------
// phandle-args-arity / phandle-dangling / provider-missing-cells
//
// One verdict per phandle+args consumer property (clocks = <&p a b>, ...),
// read off the device graph's edges: each entry is a phandle cell followed
// by as many argument cells as the provider's #*-cells declares — the
// generic of_parse_phandle_with_args contract. The graph stops decoding a
// property at its first broken entry, so that entry is the one reported.
// ---------------------------------------------------------------------------
void run_phandle_args(const graph::DeviceGraph& g,
                      const CrossRefOptions& options, Findings& out) {
  for (const graph::Edge& e : g.edges()) {
    if (is_interrupts_edge(e)) continue;
    std::string message = "entry " + std::to_string(e.entry_index) + " of '" +
                          e.property + "' ";
    const char* id = nullptr;
    std::string provider;
    if (!e.resolved) {
      id = "phandle-dangling";
      message += "references phandle " + std::to_string(e.phandle_cell) +
                 ", which no node carries";
    } else if (e.missing_cells) {
      id = "provider-missing-cells";
      message += "references " + g.node(e.provider).path +
                 ", which declares no " + std::string(e.cells_property);
    } else if (e.truncated) {
      id = "phandle-args-arity";
      provider = g.node(e.provider).path;
      message += "needs " + std::to_string(e.arity) + " argument cell(s) (" +
                 std::string(e.cells_property) + " of " + provider +
                 ") but only " + std::to_string(e.args) + " remain";
    } else {
      continue;
    }
    Finding* f = emit_finding(options, out, id, g.node(e.consumer).path,
                              std::move(message), e.location, e.provenance,
                              e.property);
    if (f != nullptr) f->other_subject = provider;
  }
}

// ---------------------------------------------------------------------------
// interrupt-parent-dangling / interrupt-provider-missing-cells /
// interrupt-cells-arity
//
// The dangling check reads the interrupt-parent property where it is
// written; the other two read the node's `interrupts` edges, which route
// through the effective interrupt provider (resolved interrupt-parent, else
// the nearest interrupt-controller ancestor). An unresolved edge means the
// parent dangles (reported here) or none applies.
// ---------------------------------------------------------------------------
void run_interrupts(const AnalysisContext& ctx, const graph::DeviceGraph& g,
                    const CrossRefOptions& options, Findings& out) {
  for (const graph::GraphNode& node : g.nodes()) {
    // Dangling interrupt-parent is reported where the property is written,
    // not on every descendant that inherits it.
    const dts::Property* ip = node.node->find_property("interrupt-parent");
    const auto ph = ip != nullptr ? ip->as_u32() : std::nullopt;
    if (ph && !is_phandle_placeholder(*ph) &&
        ctx.node_for_phandle(*ph) == nullptr) {
      emit_at(options, out, "interrupt-parent-dangling", node.path,
              "interrupt-parent references phandle " + std::to_string(*ph) +
                  ", which no node carries",
              *node.node, ip);
    }

    for (uint32_t ei : node.out) {
      const graph::Edge& e = g.edge(ei);
      if (!is_interrupts_edge(e) || !e.resolved) continue;
      const std::string& provider = g.node(e.provider).path;
      const char* id = nullptr;
      std::string message;
      if (e.missing_cells) {
        id = "interrupt-provider-missing-cells";
        message = "interrupt provider " + provider +
                  " declares no usable #interrupt-cells";
      } else if (e.truncated) {
        // The ragged tail follows entry_index whole tuples.
        id = "interrupt-cells-arity";
        message = "interrupts has " +
                  std::to_string(e.entry_index * e.arity + e.args) +
                  " cell(s), not a multiple of #interrupt-cells=" +
                  std::to_string(e.arity) + " of " + provider;
      } else {
        continue;
      }
      Finding* f = emit_finding(options, out, id, node.path,
                                std::move(message), e.location, e.provenance,
                                e.property);
      if (f != nullptr) f->other_subject = provider;
    }
  }
}

// ---------------------------------------------------------------------------
// interrupt-tree-cycle
//
// Follows the interrupt-parent chain from every interrupt client/controller.
// A provider whose parent is itself terminates the tree (Linux's
// of_irq_find_parent contract), so only cycles of length >= 2 are faults.
// ---------------------------------------------------------------------------
void run_interrupt_cycles(const AnalysisContext& ctx,
                          const CrossRefOptions& options, Findings& out) {
  std::unordered_set<const dts::Node*> reported;
  std::unordered_set<const dts::Node*> known_safe;
  for (const auto& [path, node] : ctx.nodes()) {
    if (node->find_property("interrupts") == nullptr &&
        node->find_property("interrupt-controller") == nullptr) {
      continue;
    }
    std::vector<const dts::Node*> chain;
    std::unordered_set<const dts::Node*> on_chain;
    const dts::Node* cur = node;
    while (cur != nullptr && known_safe.find(cur) == known_safe.end()) {
      if (on_chain.find(cur) != on_chain.end()) {
        if (reported.insert(cur).second) {
          emit_at(options, out, "interrupt-tree-cycle", ctx.path_of(*cur),
                  "interrupt-parent chain starting at " + path +
                      " revisits this node — the interrupt tree has a cycle",
                  *cur, cur->find_property("interrupt-parent"));
        }
        break;
      }
      chain.push_back(cur);
      on_chain.insert(cur);
      const dts::Node* next = ctx.interrupt_parent(*cur);
      if (next == cur) break;  // self-parent terminates the tree
      cur = next;
    }
    // Nothing on a terminated chain can be part of a cycle.
    if (cur == nullptr || known_safe.find(cur) != known_safe.end() ||
        reported.find(cur) == reported.end()) {
      known_safe.insert(chain.begin(), chain.end());
    }
  }
}

// ---------------------------------------------------------------------------
// ranges-coverage
// ---------------------------------------------------------------------------
void run_ranges_coverage(const AnalysisContext& ctx,
                         const CrossRefOptions& options, Findings& out) {
  for (const auto& [path, node] : ctx.nodes()) {
    if (path == "/") continue;
    const dts::Property* reg = node->find_property("reg");
    if (reg == nullptr) continue;
    auto [ac, sc] = ctx.reg_cells(*node);
    if (ac == 0 || ac > 2 || sc == 0 || sc > 2) continue;  // semantic reports
    auto cells = reg->as_cells();
    if (!cells) continue;
    uint32_t stride = ac + sc;
    for (size_t e = 0; (e + 1) * stride <= cells->size(); ++e) {
      const uint64_t base = dts::combine_cells(*cells, e * stride, ac);
      const uint64_t size = dts::combine_cells(*cells, e * stride + ac, sc);
      if (size == 0) continue;
      if (!ctx.translate(*node, base, size)) {
        Finding* f =
            emit_at(options, out, "ranges-coverage", path,
                    "reg entry " + std::to_string(e) + " (" +
                        support::hex(base) + "+" + support::hex(size) +
                        ") is not covered by the ancestor buses' ranges",
                    *node, reg);
        if (f != nullptr) {
          f->base_a = base;
          f->size_a = size;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// provider-orphan
//
// A node that declares one of the phandle+args provider properties
// (#clock-cells, #gpio-cells, ...) is only consumable through a phandle
// reference; if no phandle can reach it the provider is dead weight.
// Interrupt providers are excluded — the interrupt tree reaches parents
// structurally, without phandles.
// ---------------------------------------------------------------------------
void run_provider_orphan(const AnalysisContext& ctx,
                         const graph::DeviceGraph& g,
                         const CrossRefOptions& options, Findings& out) {
  // Phandle values actually referenced anywhere: every decoded phandle+args
  // entry, plus every interrupt-parent value.
  std::unordered_set<uint32_t> referenced;
  for (const graph::Edge& e : g.edges()) {
    if (!is_interrupts_edge(e)) referenced.insert(e.phandle);
  }
  for (const auto& [path, node] : ctx.nodes()) {
    if (const dts::Property* ip = node->find_property("interrupt-parent")) {
      if (auto v = ip->as_u32()) referenced.insert(*v);
    }
  }

  for (const auto& [path, node] : ctx.nodes()) {
    const dts::Property* decl = nullptr;
    for (const PhandleArgsSpec& spec : phandle_args_specs()) {
      if (spec.cells_property == "#interrupt-cells") continue;
      if (const dts::Property* p =
              node->find_property(std::string(spec.cells_property))) {
        decl = p;
        break;
      }
    }
    if (decl == nullptr) continue;
    const dts::Property* ph = node->find_property("phandle");
    std::optional<uint32_t> value =
        ph != nullptr ? ph->as_u32() : std::nullopt;
    if (value && referenced.find(*value) != referenced.end()) continue;
    emit_at(options, out, "provider-orphan", path,
            "declares " + decl->name +
                " but no phandle reference reaches this provider",
            *node, decl);
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"phandle-dangling", FindingKind::kDanglingPhandle,
       FindingSeverity::kError,
       "A phandle-typed cell references a value no node carries."},
      {"phandle-duplicate", FindingKind::kDuplicatePhandle,
       FindingSeverity::kError,
       "Two nodes carry the same explicit phandle value."},
      {"interrupt-parent-dangling", FindingKind::kDanglingPhandle,
       FindingSeverity::kError,
       "interrupt-parent references a phandle no node carries."},
      {"interrupt-cells-arity", FindingKind::kCellsArityViolation,
       FindingSeverity::kError,
       "interrupts length is not a multiple of the provider's "
       "#interrupt-cells."},
      {"interrupt-provider-missing-cells", FindingKind::kMissingProviderCells,
       FindingSeverity::kError,
       "The resolved interrupt provider declares no usable "
       "#interrupt-cells."},
      {"phandle-args-arity", FindingKind::kCellsArityViolation,
       FindingSeverity::kError,
       "A phandle+args entry has fewer argument cells than the provider's "
       "#*-cells demands."},
      {"provider-missing-cells", FindingKind::kMissingProviderCells,
       FindingSeverity::kError,
       "A phandle+args entry references a provider without the matching "
       "#*-cells property."},
      {"interrupt-tree-cycle", FindingKind::kInterruptTreeCycle,
       FindingSeverity::kError,
       "Following interrupt-parent links revisits a node."},
      {"ranges-coverage", FindingKind::kRangesViolation,
       FindingSeverity::kWarning,
       "A reg entry is not covered by the ancestor buses' ranges."},
      {"provider-orphan", FindingKind::kOrphanProvider,
       FindingSeverity::kWarning,
       "A #*-cells provider no phandle reference can reach."},
      // Device-graph dataflow rules (checkers/graph/) — same catalog so the
      // CLI's --disable-rule/--rule-severity and SARIF metadata cover them.
      {"graph-provider-cycle", FindingKind::kProviderCycle,
       FindingSeverity::kError,
       "Provider dependencies (clocks, resets, ...) form a cycle."},
      {"graph-status-propagation", FindingKind::kDisabledProviderDependency,
       FindingSeverity::kError,
       "An enabled consumer transitively depends on a disabled or missing "
       "provider."},
      {"graph-cells-arity", FindingKind::kCellsArityViolation,
       FindingSeverity::kError,
       "A typed dependency edge violates the provider's #*-cells arity "
       "contract."},
      {"graph-orphan-provider", FindingKind::kOrphanProvider,
       FindingSeverity::kWarning,
       "A referenced provider is only demanded by disabled consumers."},
      {"graph-exclusive-provider", FindingKind::kExclusiveProviderClaim,
       FindingSeverity::kError,
       "Two units claim the same exclusive provider."},
  };
  return kCatalog;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& r : rule_catalog()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

std::optional<CrossRefOptions> parse_rule_options(std::string_view disable_rule,
                                                  std::string_view rule_severity,
                                                  std::string& error_text) {
  auto valid_ids = [] {
    std::string ids = " (valid ids: ";
    bool first = true;
    for (const RuleInfo& r : rule_catalog()) {
      if (!first) ids += ", ";
      first = false;
      ids += r.id;
    }
    ids += ")";
    return ids;
  };

  CrossRefOptions opts;
  bool ok = true;
  for (const std::string& id : support::split(disable_rule, ',')) {
    auto t = support::trim(id);
    if (t.empty()) continue;
    if (find_rule(t) == nullptr) {
      error_text += "unknown rule id '" + std::string(t) +
                    "' in --disable-rule" + valid_ids() + "\n";
      ok = false;
      continue;
    }
    opts.disabled.insert(std::string(t));
  }
  for (const std::string& ov : support::split(rule_severity, ',')) {
    auto t = support::trim(ov);
    if (t.empty()) continue;
    size_t eq = t.find('=');
    std::string id(support::trim(
        t.substr(0, eq == std::string_view::npos ? t.size() : eq)));
    std::string sev = eq == std::string_view::npos
                          ? std::string()
                          : std::string(support::trim(t.substr(eq + 1)));
    if (sev != "error" && sev != "warning") {
      error_text += "bad --rule-severity entry '" + std::string(t) +
                    "' (want <rule-id>=error|warning)\n";
      ok = false;
      continue;
    }
    if (find_rule(id) == nullptr) {
      error_text += "unknown rule id '" + id + "' in --rule-severity" +
                    valid_ids() + "\n";
      ok = false;
      continue;
    }
    opts.severity_overrides[id] = sev == "error" ? FindingSeverity::kError
                                                 : FindingSeverity::kWarning;
  }
  if (!ok) return std::nullopt;
  return opts;
}

const std::vector<PhandleArgsSpec>& phandle_args_specs() {
  using graph::EdgeKind;
  static const std::vector<PhandleArgsSpec> kSpecs = {
      {"clocks", "#clock-cells", EdgeKind::kClock},
      {"gpios", "#gpio-cells", EdgeKind::kGpio},
      {"-gpios", "#gpio-cells", EdgeKind::kGpio, true},
      {"dmas", "#dma-cells", EdgeKind::kDma},
      {"resets", "#reset-cells", EdgeKind::kReset},
      {"pwms", "#pwm-cells", EdgeKind::kPwm},
      {"phys", "#phy-cells", EdgeKind::kPhy},
      {"mboxes", "#mbox-cells", EdgeKind::kMailbox},
      {"io-channels", "#io-channel-cells", EdgeKind::kIoChannel},
      {"power-domains", "#power-domain-cells", EdgeKind::kPowerDomain},
      {"thermal-sensors", "#thermal-sensor-cells", EdgeKind::kThermalSensor},
      {"interrupts-extended", "#interrupt-cells", EdgeKind::kInterrupt},
  };
  return kSpecs;
}

Finding* emit_finding(const CrossRefOptions& options, Findings& out,
                      std::string_view id, std::string subject,
                      std::string message,
                      const support::SourceLocation& location,
                      std::string delta, std::string property) {
  if (!options.enabled(id)) return nullptr;
  const RuleInfo* info = find_rule(id);
  // The catalog is closed; a miss is a programming error caught by tests.
  if (info == nullptr) return nullptr;
  Finding f;
  f.kind = info->kind;
  f.severity = info->default_severity;
  auto ov = options.severity_overrides.find(std::string(id));
  if (ov != options.severity_overrides.end()) f.severity = ov->second;
  f.rule = std::string(id);
  f.subject = std::move(subject);
  f.message = std::move(message);
  f.location = location;
  f.delta = std::move(delta);
  f.property = std::move(property);
  out.push_back(std::move(f));
  return &out.back();
}

Findings CrossRefChecker::check(const dts::Tree& tree) const {
  return check(AnalysisContext(tree));
}

Findings CrossRefChecker::check(const AnalysisContext& ctx) const {
  return check(ctx, graph::DeviceGraph::build(ctx));
}

Findings CrossRefChecker::check(const AnalysisContext& ctx,
                                const graph::DeviceGraph& g) const {
  Findings out;
  run_phandle_duplicate(ctx, options_, out);
  run_phandle_args(g, options_, out);
  run_interrupts(ctx, g, options_, out);
  run_interrupt_cycles(ctx, options_, out);
  run_ranges_coverage(ctx, options_, out);
  run_provider_orphan(ctx, g, options_, out);
  return out;
}

}  // namespace llhsc::checkers::crossref
