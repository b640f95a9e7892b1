#include "checkers/syntactic.hpp"

#include <functional>
#include <utility>
#include <vector>

#include "checkers/crossref/context.hpp"
#include "support/strings.hpp"

namespace llhsc::checkers {

namespace {

/// The stride (cells per reg entry) a property's item counts are measured
/// in: reg-style properties use the #address-cells + #size-cells governing
/// the node (nearest-ancestor resolution); other cell arrays count single
/// cells.
uint32_t entry_stride(const crossref::AnalysisContext& ctx,
                      const dts::Node& node, const std::string& prop_name) {
  if (prop_name == "reg") {
    auto [ac, sc] = ctx.reg_cells(node);
    return ac + sc;
  }
  return 1;
}

std::string provenance_of(const dts::Property& p, const dts::Node& n) {
  return (!p.provenance.empty() ? p.provenance : n.provenance()).str();
}

}  // namespace

SyntacticChecker::SyntacticChecker(const schema::SchemaSet& schemas,
                                   smt::Backend backend,
                                   const std::string& cache_dir)
    : schemas_(&schemas),
      solver_(backend),
      planner_(solver_, cache_dir),
      present_(solver_.bool_var("R")),
      string_(solver_.bv_var("v", 32)),
      cell_(solver_.bv_var("c", 64)),
      count_(solver_.bv_var("n", 16)),
      entries_(solver_.bv_var("k", 16)) {}

uint32_t SyntacticChecker::intern(const std::string& s) {
  auto it = interned_.find(s);
  if (it != interned_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(interned_.size()) + 1;
  interned_.emplace(s, id);
  return id;
}

size_t SyntacticChecker::ObligationHash::operator()(
    const Obligation& o) const noexcept {
  size_t h = std::hash<const void*>()(o.constraint);
  for (uint64_t v : {static_cast<uint64_t>(o.rule), o.value,
                     static_cast<uint64_t>(o.stride)}) {
    h ^= std::hash<uint64_t>()(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

template <typename Build>
bool SyntacticChecker::violated(const Obligation& obligation, Build&& build) {
  auto it = verdicts_.find(obligation);
  if (it != verdicts_.end()) return it->second;
  const auto [fact, constraint] = build();
  const logic::Formula query[] = {fact, constraint};
  const bool verdict =
      planner_.check(query).result == smt::CheckResult::kUnsat;
  verdicts_.emplace(obligation, verdict);
  return verdict;
}

Findings SyntacticChecker::check(const dts::Tree& tree) {
  return check(crossref::AnalysisContext(tree));
}

Findings SyntacticChecker::check(const crossref::AnalysisContext& ctx) {
  Findings out;
  for (const auto& [path, node] : ctx.nodes()) {
    const size_t first = out.size();
    for (const schema::NodeSchema* schema : schemas_->match(*node)) {
      check_schema(ctx, *node, path, *schema, out);
    }
    for (size_t i = first; i < out.size(); ++i) {
      // Findings about a present property point at the property; everything
      // else (missing-required, child rules) at the node.
      Finding& f = out[i];
      if (!f.location.valid()) {
        const dts::Property* p =
            f.property.empty() ? nullptr : node->find_property(f.property);
        f.location = (p != nullptr && p->location.valid()) ? p->location
                                                           : node->location();
      }
    }
  }
  return out;
}

void SyntacticChecker::check_schema(const crossref::AnalysisContext& ctx,
                                    const dts::Node& node,
                                    const std::string& path,
                                    const schema::NodeSchema& schema,
                                    Findings& out) {
  auto& fa = solver_.formulas();
  auto& bv = solver_.bitvectors();

  // Required properties (constraints 2/3): R(x) must hold, under the
  // instance closure fact R(x) <-> x is present (constraints 5+6).
  for (const std::string& req : schema.required) {
    const bool present = node.find_property(req) != nullptr;
    if (violated({nullptr, Rule::kRequired, present}, [&] {
          return std::pair(present ? present_ : fa.mk_not(present_),
                           present_);
        })) {
      Finding f;
      f.kind = FindingKind::kMissingRequired;
      f.subject = path;
      f.property = req;
      f.delta = node.provenance();
      f.message = "schema '" + schema.id + "' requires property '" + req + "'";
      out.push_back(std::move(f));
    }
  }

  // Per-property value constraints.
  for (const schema::PropertySchema& ps : schema.properties) {
    const dts::Property* inst = node.find_property(ps.name);
    if (inst == nullptr) continue;  // absence handled by `required`
    check_property_values(node, path, schema, ps, *inst,
                          entry_stride(ctx, node, ps.name), out);
  }

  // additionalProperties: false — instance properties must appear in the
  // schema. (dt-schema allows the standard meta-properties everywhere.)
  if (!schema.additional_properties) {
    static const char* kMeta[] = {"#address-cells", "#size-cells", "phandle",
                                  "status", "compatible", "device_type"};
    for (const dts::Property& p : node.properties()) {
      bool known = schema.find_property(p.name) != nullptr;
      for (const char* m : kMeta) {
        known = known || p.name == m;
      }
      if (!known) {
        Finding f;
        f.kind = FindingKind::kUnknownProperty;
        f.subject = path;
        f.property = p.name;
        f.delta = provenance_of(p, node);
        f.message = "schema '" + schema.id +
                    "' does not allow additional property '" + p.name + "'";
        out.push_back(std::move(f));
      }
    }
  }

  // reg shape (the dt-schema structural rule from §I-A): the reg cell count
  // must be a positive multiple of (#address-cells + #size-cells). Encoded
  // as the SMT query  exists k >= 1:  cells == k * stride.
  if (schema.check_reg_shape) {
    if (const dts::Property* reg = node.find_property("reg")) {
      auto cells = reg->as_cells();
      if (cells) {
        const uint32_t stride = entry_stride(ctx, node, "reg");
        const uint64_t count = cells->size() & 0xffff;
        if (violated({nullptr, Rule::kRegShape, count, stride}, [&] {
              const logic::Formula shape[] = {
                  bv.eq(count_,
                        bv.bv_mul(entries_, bv.bv_const(stride, 16))),
                  bv.uge(entries_, bv.bv_const(1, 16)),
                  // Guard against multiplication wrap-around for large k.
                  bv.ule(entries_, bv.bv_const(4096, 16))};
              return std::pair(bv.eq(count_, bv.bv_const(count, 16)),
                               fa.mk_and(shape));
            })) {
          Finding f;
          f.kind = FindingKind::kRegShapeViolation;
          f.subject = path;
          f.property = "reg";
          f.delta = provenance_of(*reg, node);
          f.message = "reg has " + std::to_string(cells->size()) +
                      " cells, not a positive multiple of #address-cells + "
                      "#size-cells = " +
                      std::to_string(stride);
          out.push_back(std::move(f));
        }
      }
    }
  }

  // Child rules: count + schema conformance of matching children. Counts go
  // through the solver like item counts.
  for (const schema::ChildRule& rule : schema.child_rules) {
    uint32_t count = 0;
    for (const auto& child : node.children()) {
      if (support::glob_match(rule.name_pattern, child->name())) ++count;
    }
    if (violated({&rule, Rule::kChildren, count}, [&] {
          logic::Formula in_bounds = fa.make_true();
          if (rule.min_count) {
            in_bounds = fa.mk_and(
                in_bounds, bv.uge(count_, bv.bv_const(*rule.min_count, 16)));
          }
          if (rule.max_count) {
            in_bounds = fa.mk_and(
                in_bounds, bv.ule(count_, bv.bv_const(*rule.max_count, 16)));
          }
          return std::pair(bv.eq(count_, bv.bv_const(count, 16)), in_bounds);
        })) {
      Finding f;
      f.kind = FindingKind::kChildRuleViolation;
      f.subject = path;
      f.delta = node.provenance();
      f.message = "child count for pattern '" + rule.name_pattern + "' is " +
                  std::to_string(count) + ", outside the allowed range";
      out.push_back(std::move(f));
    }
  }
}

void SyntacticChecker::check_property_values(
    const dts::Node& node, const std::string& path,
    const schema::NodeSchema& schema, const schema::PropertySchema& ps,
    const dts::Property& inst, uint32_t stride, Findings& out) {
  auto& fa = solver_.formulas();
  auto& bv = solver_.bitvectors();
  const std::string delta = provenance_of(inst, node);

  auto add_finding = [&](FindingKind kind, std::string message) {
    Finding f;
    f.kind = kind;
    f.subject = path;
    f.property = ps.name;
    f.delta = delta;
    f.message = "schema '" + schema.id + "': " + std::move(message);
    out.push_back(std::move(f));
  };

  // --- type shape ---
  auto str = inst.as_string();
  auto strs = inst.as_string_list();
  auto cells = inst.as_cells();
  switch (ps.type) {
    case schema::PropertyType::kString:
      if (!str) {
        add_finding(FindingKind::kTypeMismatch,
                    "expected a single string value");
        return;
      }
      break;
    case schema::PropertyType::kStringList:
      if (!strs) {
        add_finding(FindingKind::kTypeMismatch, "expected a string list");
        return;
      }
      break;
    case schema::PropertyType::kCells:
      if (!cells) {
        add_finding(FindingKind::kTypeMismatch, "expected a cell array");
        return;
      }
      break;
    case schema::PropertyType::kBool:
      if (!inst.is_boolean()) {
        add_finding(FindingKind::kTypeMismatch,
                    "expected a boolean (presence-only) property");
        return;
      }
      break;
    case schema::PropertyType::kBytes:
      if (inst.chunks.size() != 1 ||
          inst.chunks[0].kind != dts::ChunkKind::kBytes) {
        add_finding(FindingKind::kTypeMismatch, "expected a byte string");
        return;
      }
      break;
    case schema::PropertyType::kAny:
      break;
  }

  // --- const / enum over strings (interned to bit-vector ids, the stand-in
  // for the paper's Z3 string encoding: constraint (1)/(4)) ---
  if (ps.const_string || !ps.enum_strings.empty() || ps.pattern) {
    if (!str && strs && strs->size() == 1) str = (*strs)[0];
    if (str) {
      // Interned before any constraint string, as the fact comes first.
      const uint32_t id = intern(*str);
      auto fact = [&] { return bv.eq(string_, bv.bv_const(id, 32)); };
      if (ps.const_string) {
        if (violated({&ps, Rule::kConstString, id}, [&] {
              const uint32_t want = intern(*ps.const_string);
              return std::pair(fact(), bv.eq(string_, bv.bv_const(want, 32)));
            })) {
          add_finding(FindingKind::kConstMismatch,
                      "value \"" + *str + "\" must be \"" + *ps.const_string +
                          "\"");
        }
      }
      if (!ps.enum_strings.empty()) {
        if (violated({&ps, Rule::kEnumString, id}, [&] {
              std::vector<logic::Formula> options;
              for (const std::string& e : ps.enum_strings) {
                options.push_back(bv.eq(string_, bv.bv_const(intern(e), 32)));
              }
              return std::pair(fact(), fa.mk_or(options));
            })) {
          add_finding(FindingKind::kEnumViolation,
                      "value \"" + *str + "\" is not one of the " +
                          std::to_string(ps.enum_strings.size()) +
                          " allowed values");
        }
      }
      if (ps.pattern && !support::glob_match(*ps.pattern, *str)) {
        add_finding(FindingKind::kPatternMismatch,
                    "value \"" + *str + "\" does not match pattern '" +
                        *ps.pattern + "'");
      }
    }
  }

  // --- const / enum over single-cell values ---
  if ((ps.const_cell || !ps.enum_cells.empty()) && cells &&
      cells->size() == 1) {
    const uint64_t value = (*cells)[0];
    auto fact = [&] { return bv.eq(cell_, bv.bv_const(value, 64)); };
    if (ps.const_cell) {
      if (violated({&ps, Rule::kConstCell, value}, [&] {
            return std::pair(fact(),
                             bv.eq(cell_, bv.bv_const(*ps.const_cell, 64)));
          })) {
        add_finding(FindingKind::kConstMismatch,
                    "value " + support::hex((*cells)[0]) + " must be " +
                        support::hex(*ps.const_cell));
      }
    }
    if (!ps.enum_cells.empty()) {
      if (violated({&ps, Rule::kEnumCell, value}, [&] {
            std::vector<logic::Formula> options;
            for (uint64_t e : ps.enum_cells) {
              options.push_back(bv.eq(cell_, bv.bv_const(e, 64)));
            }
            return std::pair(fact(), fa.mk_or(options));
          })) {
        add_finding(FindingKind::kEnumViolation,
                    "value " + support::hex((*cells)[0]) +
                        " is not in the allowed set");
      }
    }
  }

  // --- minimum / maximum over every cell value (manufacturer ranges) ---
  if ((ps.minimum || ps.maximum) && cells) {
    for (size_t i = 0; i < cells->size(); ++i) {
      if (violated({&ps, Rule::kRange, (*cells)[i]}, [&] {
            logic::Formula in_range = fa.make_true();
            if (ps.minimum) {
              in_range = fa.mk_and(
                  in_range, bv.uge(cell_, bv.bv_const(*ps.minimum, 64)));
            }
            if (ps.maximum) {
              in_range = fa.mk_and(
                  in_range, bv.ule(cell_, bv.bv_const(*ps.maximum, 64)));
            }
            return std::pair(bv.eq(cell_, bv.bv_const((*cells)[i], 64)),
                             in_range);
          })) {
        add_finding(FindingKind::kEnumViolation,
                    "cell " + std::to_string(i) + " value " +
                        support::hex((*cells)[i]) + " is outside [" +
                        (ps.minimum ? support::hex(*ps.minimum) : "0") + ", " +
                        (ps.maximum ? support::hex(*ps.maximum) : "max") +
                        "]");
      }
    }
  }

  // --- minItems / maxItems over the entry count ---
  if ((ps.min_items || ps.max_items) && cells) {
    uint32_t entries = stride == 0
                           ? static_cast<uint32_t>(cells->size())
                           : static_cast<uint32_t>(cells->size() / stride);
    if (violated({&ps, Rule::kItems, entries & 0xffff}, [&] {
          logic::Formula in_bounds = fa.make_true();
          if (ps.min_items) {
            in_bounds = fa.mk_and(
                in_bounds, bv.uge(count_, bv.bv_const(*ps.min_items, 16)));
          }
          if (ps.max_items) {
            in_bounds = fa.mk_and(
                in_bounds, bv.ule(count_, bv.bv_const(*ps.max_items, 16)));
          }
          return std::pair(bv.eq(count_, bv.bv_const(entries & 0xffff, 16)),
                           in_bounds);
        })) {
      add_finding(FindingKind::kItemCountViolation,
                  "entry count " + std::to_string(entries) +
                      " is outside [" +
                      (ps.min_items ? std::to_string(*ps.min_items) : "0") +
                      ", " +
                      (ps.max_items ? std::to_string(*ps.max_items) : "inf") +
                      "]");
    }
  }
}

}  // namespace llhsc::checkers
