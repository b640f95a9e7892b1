#include "checkers/semantic.hpp"

#include "checkers/crossref/context.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "checkers/interval_baseline.hpp"
#include "support/strings.hpp"

namespace llhsc::checkers {

namespace {

RegionClass classify(const dts::Node& node) {
  if (const dts::Property* dt = node.find_property("device_type")) {
    if (dt->as_string() == std::optional<std::string>("memory")) {
      return RegionClass::kMemory;
    }
  }
  if (const dts::Property* c = node.find_property("compatible")) {
    // compatible is a stringlist (most-specific first); the veth binding may
    // appear at any position, e.g. compatible = "acme,veth-2", "veth".
    if (auto list = c->as_string_list()) {
      for (const std::string& entry : *list) {
        if (entry == "veth") return RegionClass::kIpc;
      }
    }
  }
  if (node.base_name().rfind("veth", 0) == 0) return RegionClass::kIpc;
  return RegionClass::kDevice;
}

/// Extracts the regions of one node's reg through the shared context: the
/// governing cells come from ctx.reg_cells (nearest-ancestor resolution) and
/// the CPU-view base from ctx.translate (composition of every ancestor
/// bus's `ranges`).
void extract_node_regions(const crossref::AnalysisContext& ctx,
                          const dts::Node& node, const std::string& path,
                          std::vector<MemRegion>& regions, Findings& out) {
  const dts::Property* reg = node.find_property("reg");
  if (reg == nullptr) return;
  auto [ac, sc] = ctx.reg_cells(node);
  if (sc == 0) return;  // reg is an id (cpu cores), not an address range
  if (ac == 0 || ac > 2 || sc > 2) {
    Finding f;
    f.kind = FindingKind::kRegWidthViolation;
    f.subject = path;
    f.property = "reg";
    f.delta = node.provenance();
    f.location = reg->location.valid() ? reg->location : node.location();
    f.message = "#address-cells=" + std::to_string(ac) + " / #size-cells=" +
                std::to_string(sc) + " outside the supported 1..2 range";
    out.push_back(std::move(f));
    return;
  }
  auto cells = reg->as_cells();
  if (!cells) return;  // non-cell reg: schema layer reports the type error

  // Per-cell width rule: every cell must fit 32 bits.
  for (uint64_t c : *cells) {
    if (c > UINT32_MAX) {
      Finding f;
      f.kind = FindingKind::kRegWidthViolation;
      f.subject = path;
      f.property = "reg";
      f.delta = !reg->provenance.empty() ? reg->provenance : node.provenance();
      f.location = reg->location.valid() ? reg->location : node.location();
      f.message = "cell value " + support::hex(c) + " exceeds 32 bits";
      out.push_back(std::move(f));
      return;
    }
  }

  uint32_t stride = ac + sc;
  size_t full_entries = cells->size() / stride;
  for (size_t e = 0; e < full_entries; ++e) {
    MemRegion r;
    r.path = path;
    r.entry_index = e;
    r.base = dts::combine_cells(*cells, e * stride, ac);
    r.size = dts::combine_cells(*cells, e * stride + ac, sc);
    r.local_base = r.base;
    r.location = reg->location.valid() ? reg->location : node.location();
    // Blame resolution: the delta that last wrote reg; else the delta that
    // produced the node; else the delta that changed the governing cell
    // widths (the d3-truncation case — reg is untouched core content but the
    // re-interpretation is the delta's doing).
    r.provenance = !reg->provenance.empty()   ? reg->provenance
                   : !node.provenance().empty() ? node.provenance()
                                                : ctx.cells_provenance(node);
    r.region_class = classify(node);
    // Translate through the bus chain into the CPU view.
    if (r.size > 0) {
      auto mapped = ctx.translate(node, r.base, r.size);
      if (!mapped) {
        Finding f;
        f.kind = FindingKind::kRangesViolation;
        f.subject = path;
        f.property = "reg";
        f.delta = r.provenance;
        f.location = r.location;
        f.base_a = r.base;
        f.size_a = r.size;
        f.message = "reg entry " + support::hex(r.base) + "+" +
                    support::hex(r.size) +
                    " is not covered by the parent bus's ranges";
        out.push_back(std::move(f));
        continue;
      }
      r.base = *mapped;
    }
    regions.push_back(std::move(r));
  }
}

/// The value the solver's w-bit encoding actually sees (bv_const truncates).
uint64_t mask_address(uint64_t value, uint32_t width) {
  return width >= 64 ? value : (value & ((1ull << width) - 1));
}

/// Mirror of the solver's uadd_overflow verdict on masked base/size: true
/// iff base + size >= 2^width, in which case [base, base+size) is empty in
/// the w-bit encoding (the end wraps to or below the base) and the region
/// cannot overlap anything.
bool region_wraps(uint64_t base_m, uint64_t size_m, uint32_t width) {
  if (size_m == 0) return false;
  if (width >= 64) return base_m > UINT64_MAX - size_m;
  return base_m + size_m >= (1ull << width);
}

/// phandle -> the holder's `cells` property (`fallback` when absent or not a
/// u32); of two holders of one phandle, the later in document order wins.
std::unordered_map<uint32_t, uint32_t> cells_by_phandle(const dts::Tree& tree,
                                                        const char* cells,
                                                        uint32_t fallback) {
  std::unordered_map<uint32_t, uint32_t> out;
  tree.visit([&](const std::string&, const dts::Node& node) {
    const dts::Property* ph = node.find_property("phandle");
    auto phv = ph != nullptr ? ph->as_u32() : std::nullopt;
    if (!phv) return;
    const dts::Property* c = node.find_property(cells);
    out[*phv] = c != nullptr ? c->as_u32().value_or(fallback) : fallback;
  });
  return out;
}

}  // namespace

std::string_view to_string(RegionClass c) {
  switch (c) {
    case RegionClass::kMemory: return "memory";
    case RegionClass::kDevice: return "device";
    case RegionClass::kIpc: return "ipc";
  }
  return "unknown";
}

bool overlap_is_fault(RegionClass a, RegionClass b) {
  // Only the ipc/memory combination is a sanctioned overlap.
  if ((a == RegionClass::kIpc && b == RegionClass::kMemory) ||
      (a == RegionClass::kMemory && b == RegionClass::kIpc)) {
    return false;
  }
  return true;
}

Finding zero_size_finding(const MemRegion& r) {
  Finding f;
  f.kind = FindingKind::kZeroSizeRegion;
  f.severity = FindingSeverity::kWarning;
  f.subject = r.path;
  f.property = "reg";
  f.delta = r.provenance;
  f.location = r.location;
  f.base_a = r.base;
  f.message = "region at " + support::hex(r.base) + " has size 0";
  return f;
}

Finding wrap_finding(const MemRegion& r, uint32_t width) {
  Finding f;
  f.kind = FindingKind::kSizeOverflow;
  f.subject = r.path;
  f.property = "reg";
  f.delta = r.provenance;
  f.location = r.location;
  f.base_a = r.base;
  f.size_a = r.size;
  f.message = "region " + support::hex(r.base) + "+" + support::hex(r.size) +
              " wraps around the " + std::to_string(width) +
              "-bit address space";
  return f;
}

Finding overlap_finding(const MemRegion& a, const MemRegion& b,
                        uint64_t witness) {
  Finding f;
  f.kind = FindingKind::kAddressOverlap;
  f.subject = a.path + "[" + std::to_string(a.entry_index) + "]";
  f.other_subject = b.path + "[" + std::to_string(b.entry_index) + "]";
  // Blame the most recent delta involved (b's provenance wins when both
  // have one — later deltas modify earlier state).
  f.delta = !b.provenance.empty() ? b.provenance : a.provenance;
  f.location = a.location;
  f.base_a = a.base;
  f.size_a = a.size;
  f.base_b = b.base;
  f.size_b = b.size;
  f.witness = witness;
  f.message = "regions " + support::hex(a.base) + "+" + support::hex(a.size) +
              " and " + support::hex(b.base) + "+" + support::hex(b.size) +
              " overlap (witness address " + support::hex(witness) + ")";
  return f;
}

Finding interrupt_collision_finding(const Claim& a, const Claim& b) {
  Finding f;
  f.kind = FindingKind::kInterruptCollision;
  f.subject = b.path;
  f.property = "interrupts";
  f.other_subject = a.path;
  f.delta = !b.provenance.empty() ? b.provenance : a.provenance;
  f.location = b.location;
  f.base_a = b.tuple.empty() ? 0 : b.tuple[0];
  f.message = "interrupt line " + std::to_string(f.base_a) +
              " already claimed by " + a.path;
  return f;
}

Finding clock_collision_finding(const Claim& a, const Claim& b) {
  Finding f;
  f.kind = FindingKind::kClockCollision;
  f.subject = b.path;
  f.property = "assigned-clocks";
  f.other_subject = a.path;
  f.delta = !b.provenance.empty() ? b.provenance : a.provenance;
  f.location = b.location;
  f.base_a = b.tuple.empty() ? 0 : b.tuple[0];
  f.message = "clock " + std::to_string(f.base_a) +
              " of provider phandle " + std::to_string(b.owner_phandle) +
              " already assigned by " + a.path;
  return f;
}

std::vector<MemRegion> extract_regions(const dts::Tree& tree, Findings& out) {
  return extract_regions(crossref::AnalysisContext(tree), out);
}

std::vector<MemRegion> extract_regions(const crossref::AnalysisContext& ctx,
                                       Findings& out) {
  // Cell widths resolve like Linux's of_n_addr_cells: the nearest ancestor
  // declaring #address-cells / #size-cells wins (spec defaults only when no
  // ancestor declares them). A pure spec-default reading would mis-parse the
  // running example's veth nodes, whose container inherits the root's 32-bit
  // addressing installed by delta d3. The context pre-computes exactly that
  // environment (plus the ranges translation), shared with the cross-
  // reference rules.
  std::vector<MemRegion> regions;
  for (const auto& [path, node] : ctx.nodes()) {
    if (path == "/") continue;
    extract_node_regions(ctx, *node, path, regions, out);
  }
  return regions;
}

std::vector<Claim> collect_interrupt_claims(const dts::Tree& tree) {
  // Pass 1: phandle -> #interrupt-cells, to know each claim's tuple stride.
  const auto interrupt_cells = cells_by_phandle(tree, "#interrupt-cells", 1);

  // Pass 2: walk with interrupt-parent inheritance (a node without its own
  // interrupt-parent uses the nearest ancestor's, per the DT spec).
  std::vector<Claim> claims;
  std::function<void(const dts::Node&, const std::string&, uint32_t)> walk =
      [&](const dts::Node& node, const std::string& path, uint32_t parent) {
        if (const dts::Property* ip = node.find_property("interrupt-parent")) {
          parent = ip->as_u32().value_or(0);
        }
        const dts::Property* irq = node.find_property("interrupts");
        if (irq != nullptr) {
          auto cells = irq->as_cells();
          if (cells && !cells->empty()) {
            size_t stride = 1;
            auto it = interrupt_cells.find(parent);
            if (it != interrupt_cells.end() && it->second != 0) {
              stride = it->second;
            }
            for (size_t off = 0, e = 0; off < cells->size();
                 off += stride, ++e) {
              Claim claim;
              claim.path = path;
              claim.provenance = !irq->provenance.empty() ? irq->provenance
                                                          : node.provenance();
              claim.location =
                  irq->location.valid() ? irq->location : node.location();
              claim.owner_phandle = parent;
              claim.entry_index = e;
              const size_t n = std::min(stride, cells->size() - off);
              claim.tuple.reserve(n);
              for (size_t k = 0; k < n; ++k) {
                claim.tuple.push_back((*cells)[off + k] & 0xffffffffull);
              }
              claims.push_back(std::move(claim));
            }
          }
        }
        for (const auto& child : node.children()) {
          const std::string child_path = path == "/"
                                             ? "/" + child->name()
                                             : path + "/" + child->name();
          walk(*child, child_path, parent);
        }
      };
  walk(tree.root(), "/", 0);
  return claims;
}

std::vector<Claim> collect_clock_claims(const dts::Tree& tree) {
  // Pass 1: phandle -> #clock-cells. A provider without #clock-cells is a
  // single-clock provider (specifier length 0) per the clock bindings.
  const auto clock_cells = cells_by_phandle(tree, "#clock-cells", 0);

  // Pass 2: one claim per assigned-clocks entry. The stride is per-entry —
  // one phandle cell plus that provider's #clock-cells — so a property can
  // legally mix providers of different arity. An entry naming an unknown
  // phandle ends the parse of that property: the stride past it is
  // unknowable, and the dangling reference is the cross-reference rules'
  // finding, not ours.
  std::vector<Claim> claims;
  tree.visit([&](const std::string& path, const dts::Node& node) {
    const dts::Property* ac = node.find_property("assigned-clocks");
    if (ac == nullptr) return;
    auto cells = ac->as_cells();
    if (!cells || cells->empty()) return;
    size_t off = 0, e = 0;
    while (off < cells->size()) {
      const uint32_t phandle =
          static_cast<uint32_t>((*cells)[off] & 0xffffffffull);
      auto it = clock_cells.find(phandle);
      if (it == clock_cells.end()) break;
      const size_t cc = it->second;
      Claim claim;
      claim.path = path;
      claim.provenance =
          !ac->provenance.empty() ? ac->provenance : node.provenance();
      claim.location = ac->location.valid() ? ac->location : node.location();
      claim.owner_phandle = phandle;
      claim.entry_index = e;
      const size_t n = std::min(cc, cells->size() - off - 1);
      claim.tuple.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        claim.tuple.push_back((*cells)[off + 1 + k] & 0xffffffffull);
      }
      claims.push_back(std::move(claim));
      off += 1 + cc;
      ++e;
    }
  });
  return claims;
}

OverlapQuery build_overlap_query(smt::Solver& solver, const MemRegion& a,
                                 const MemRegion& b, uint32_t width,
                                 const std::string& ns) {
  auto& fa = solver.formulas();
  auto& bv = solver.bitvectors();
  OverlapQuery q;
  q.x = bv.bv_var(ns + ".x", width);
  auto in_range = [&](const MemRegion& r) {
    auto base_t = bv.bv_const(r.base, width);
    auto end_t = bv.bv_add(base_t, bv.bv_const(r.size, width));
    // base <= x < base + size; the wrap case is reported separately, and
    // for wrapped regions the conjunction below under-approximates.
    return fa.mk_and(bv.uge(q.x, base_t), bv.ult(q.x, end_t));
  };
  q.formulas.push_back(in_range(a));
  q.formulas.push_back(in_range(b));
  // Witness pin (see header): the larger masked base is in the intersection
  // iff the intersection is non-empty, so this keeps the query
  // equisatisfiable while fixing the model value every backend reports.
  const uint64_t pin =
      std::max(mask_address(a.base, width), mask_address(b.base, width));
  q.formulas.push_back(bv.eq(q.x, bv.bv_const(pin, width)));
  return q;
}

RegionScreen screen_regions(const std::vector<MemRegion>& regions,
                            uint32_t width, bool warn_zero_size,
                            Findings& out) {
  RegionScreen screen;
  for (size_t i = 0; i < regions.size(); ++i) {
    const MemRegion& r = regions[i];
    if (r.size == 0) {
      if (warn_zero_size) out.push_back(zero_size_finding(r));
      continue;
    }
    MemRegion m = r;
    m.base = mask_address(m.base, width);
    m.size = mask_address(m.size, width);
    if (region_wraps(m.base, m.size, width)) {
      out.push_back(wrap_finding(r, width));
      continue;
    }
    screen.masked.push_back(std::move(m));
    screen.index.push_back(i);
  }
  return screen;
}

ClaimPairs claim_pairs(const std::vector<Claim>& claims) {
  std::map<std::pair<uint32_t, std::vector<uint64_t>>, std::vector<size_t>>
      buckets;
  std::map<std::pair<uint32_t, size_t>, uint64_t> comparable_groups;
  for (size_t i = 0; i < claims.size(); ++i) {
    buckets[{claims[i].owner_phandle, claims[i].tuple}].push_back(i);
    ++comparable_groups[{claims[i].owner_phandle, claims[i].tuple.size()}];
  }
  ClaimPairs out;
  for (const auto& [key, n] : comparable_groups) {
    out.comparable += n * (n - 1) / 2;
  }
  for (const auto& [key, members] : buckets) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        out.candidates.emplace_back(members[i], members[j]);
      }
    }
  }
  std::sort(out.candidates.begin(), out.candidates.end());
  return out;
}

ClaimQueries::ClaimQueries(smt::Solver& solver,
                           const std::vector<Claim>& claims, std::string ns)
    : solver_(&solver),
      claims_(&claims),
      ns_(std::move(ns)),
      terms_(claims.size()) {}

const std::vector<logic::BvTerm>& ClaimQueries::terms(size_t i) {
  std::vector<logic::BvTerm>& t = terms_[i];
  if (t.empty()) {
    const std::string prefix = ns_ + "." + std::to_string(i) + ".";
    t.reserve((*claims_)[i].tuple.size() + 1);
    for (size_t k = 0; k <= (*claims_)[i].tuple.size(); ++k) {
      t.push_back(solver_->bv_var(prefix + std::to_string(k), 32));
    }
  }
  return t;
}

std::vector<logic::Formula> ClaimQueries::fixings(size_t i) {
  auto& bv = solver_->bitvectors();
  const Claim& c = (*claims_)[i];
  const std::vector<logic::BvTerm>& t = terms(i);
  std::vector<logic::Formula> fs;
  fs.reserve(t.size());
  fs.push_back(bv.eq(t[0], bv.bv_const(c.owner_phandle, 32)));
  for (size_t k = 0; k < c.tuple.size(); ++k) {
    fs.push_back(bv.eq(t[k + 1], bv.bv_const(c.tuple[k], 32)));
  }
  return fs;
}

std::vector<logic::Formula> ClaimQueries::build(size_t i, size_t j) {
  auto& bv = solver_->bitvectors();
  const std::vector<logic::Formula> fa = fixings(i);
  const std::vector<logic::Formula> fb = fixings(j);
  const std::vector<logic::BvTerm>& ta = terms(i);
  const std::vector<logic::BvTerm>& tb = terms(j);
  std::vector<logic::Formula> fs;
  fs.reserve(ta.size() * 3);
  for (size_t k = 0; k < ta.size(); ++k) {
    fs.push_back(fa[k]);
    fs.push_back(fb[k]);
    fs.push_back(bv.eq(ta[k], tb[k]));
  }
  return fs;
}

SemanticChecker::SemanticChecker(smt::Backend backend, SemanticOptions options)
    : options_(options),
      solver_(backend),
      planner_(solver_, options.plan ? options.cache_dir : std::string()) {}

void SemanticChecker::arm_deadline() {
  deadline_ = options_.solver_timeout_ms > 0
                  ? support::Deadline::after_ms(options_.solver_timeout_ms)
                  : support::Deadline();
  solver_.set_deadline(deadline_);
  timeout_reported_ = false;
  skipped_queries_ = 0;
}

bool SemanticChecker::query_timed_out(smt::CheckResult r,
                                      const std::string& where,
                                      Findings& out) {
  if (r != smt::CheckResult::kUnknown) return false;
  ++skipped_queries_;
  if (!timeout_reported_) {
    timeout_reported_ = true;
    Finding f;
    f.kind = FindingKind::kSolverTimeout;
    f.subject = where;
    f.message =
        options_.solver_timeout_ms > 0
            ? "solver query exceeded the " +
                  std::to_string(options_.solver_timeout_ms) +
                  " ms budget; this and the remaining semantic checks were "
                  "not decided"
            : "solver returned unknown; this semantic check was not decided";
    out.push_back(std::move(f));
  }
  return true;
}

Findings SemanticChecker::check(const dts::Tree& tree) {
  return check(crossref::AnalysisContext(tree));
}

Findings SemanticChecker::check(const crossref::AnalysisContext& ctx) {
  Findings out;
  arm_deadline();
  // A requested-but-unusable cache degrades to a cold run, which is sound —
  // but the user asked for persistence, so say once why they are not
  // getting it (checked at open: file in the way, unwritable directory).
  if (!cache_error_reported_ && !planner_.cache_error().empty()) {
    cache_error_reported_ = true;
    Finding f;
    f.kind = FindingKind::kCacheUnavailable;
    f.severity = FindingSeverity::kWarning;
    f.subject = options_.cache_dir;
    f.message = "query cache disabled: " + planner_.cache_error() +
                "; semantic checks ran without persistent caching";
    out.push_back(std::move(f));
  }
  std::vector<MemRegion> regions = extract_regions(ctx, out);
  Findings overlap = check_regions_impl(regions);
  out.insert(out.end(), overlap.begin(), overlap.end());

  if (options_.check_interrupts) {
    Findings irq = check_claims(collect_interrupt_claims(ctx.tree()),
                                "interrupt", interrupt_collision_finding);
    out.insert(out.end(), irq.begin(), irq.end());
  }
  if (options_.check_clocks) {
    Findings clk = check_claims(collect_clock_claims(ctx.tree()), "clock",
                                clock_collision_finding);
    out.insert(out.end(), clk.begin(), clk.end());
  }
  return out;
}

Findings SemanticChecker::check_regions(const std::vector<MemRegion>& regions) {
  arm_deadline();
  return check_regions_impl(regions);
}

smt::QueryPlanner::Outcome SemanticChecker::decide(
    std::span<const logic::Formula> fs, logic::BvTerm witness) {
  if (options_.plan) return planner_.check(fs, witness);
  smt::QueryPlanner::Outcome o;
  o.result = solver_.check_assuming(fs);
  if (o.result == smt::CheckResult::kSat && witness.valid()) {
    o.witness = solver_.model_bv(witness);
  }
  return o;
}

// Interrupt and clock uniqueness through the solver (the paper's
// conclusions name interrupts alongside memory addresses as
// bit-vector-validated): two claims collide iff they name the same owner
// (interrupt parent / clock provider) and their full tuples are equal.
// Structurally this is equality, but routing it through the solver keeps
// every semantic rule in one constraint store (the paper's extensibility
// argument, §VI) and allows symbolic lines later. The exhaustive path
// queries every comparable pair; the planned path queries only pairs that
// share an (owner, tuple) bucket and prunes the rest. Both walk pairs in
// (i, j) order, so the findings are byte-identical.
Findings SemanticChecker::check_claims(const std::vector<Claim>& claims,
                                       const std::string& kind,
                                       Finding (*collision)(const Claim&,
                                                            const Claim&)) {
  Findings out;
  ClaimQueries queries(solver_, claims,
                       "cl" + std::to_string(fresh_counter_++));
  std::vector<std::pair<size_t, size_t>> pairs;
  if (options_.plan) {
    ClaimPairs cp = claim_pairs(claims);
    planner_.note_pruned(cp.comparable - cp.candidates.size());
    pairs = std::move(cp.candidates);
  } else {
    // The exhaustive path shares its solver across every comparable pair,
    // so it asserts the fixings once as facts: each query's assumed
    // fixings are then true at level 0 and only its equalities are
    // searched.
    for (size_t i = 0; i < claims.size(); ++i) {
      for (logic::Formula f : queries.fixings(i)) solver_.add(f);
      for (size_t j = i + 1; j < claims.size(); ++j) {
        if (claims[i].owner_phandle == claims[j].owner_phandle &&
            claims[i].tuple.size() == claims[j].tuple.size()) {
          pairs.emplace_back(i, j);
        }
      }
    }
  }
  for (const auto& [i, j] : pairs) {
    const Claim& a = claims[i];
    const Claim& b = claims[j];
    const smt::CheckResult r = decide(queries.build(i, j)).result;
    if (query_timed_out(r, kind + " check of " + a.path + " vs " + b.path,
                        out)) {
      return out;
    }
    if (r == smt::CheckResult::kSat) out.push_back(collision(a, b));
  }
  return out;
}

// Region disjointness. The exhaustive path decides every wrap check and
// every fault-class pair of nonzero regions on the solver. The planned path
// screens zero-size and wrapped regions concretely (one solver query pruned
// per nonzero region) and sends only the pairs whose masked intervals the
// sweep-line finds intersecting — exactly the pairs the solver can find
// satisfiable — to the planner. Candidates come sorted (first, second), the
// exhaustive loop's order.
Findings SemanticChecker::check_regions_impl(
    const std::vector<MemRegion>& regions) {
  Findings out;
  const uint32_t width = options_.address_bits;
  std::vector<std::pair<size_t, size_t>> pairs;
  if (options_.plan) {
    RegionScreen screen =
        screen_regions(regions, width, options_.warn_zero_size, out);
    for (const OverlapPair& p : find_overlaps_sweepline(screen.masked)) {
      pairs.emplace_back(screen.index[p.first], screen.index[p.second]);
    }
    // Queries the exhaustive path would issue: one wrap check per nonzero
    // region plus every pair of nonzero regions whose class combination is
    // a fault. Counted by class tally so the pruning counter is exact
    // without an O(n^2) walk.
    uint64_t nonzero = 0, ipc = 0, memory = 0;
    for (const MemRegion& r : regions) {
      if (r.size == 0) continue;
      ++nonzero;
      if (r.region_class == RegionClass::kIpc) ++ipc;
      if (r.region_class == RegionClass::kMemory) ++memory;
    }
    const uint64_t queryable = nonzero * (nonzero - 1) / 2 - ipc * memory;
    planner_.note_pruned(nonzero + queryable - pairs.size());
  } else {
    auto& bv = solver_.bitvectors();
    for (const MemRegion& r : regions) {
      if (r.size == 0) {
        if (options_.warn_zero_size) out.push_back(zero_size_finding(r));
        continue;
      }
      const logic::Formula wraps = bv.uadd_overflow(
          bv.bv_const(r.base, width), bv.bv_const(r.size, width));
      const smt::CheckResult r_wrap = decide({&wraps, 1}).result;
      if (query_timed_out(r_wrap, "wrap-around check of " + r.path, out)) {
        return out;
      }
      if (r_wrap == smt::CheckResult::kSat) {
        out.push_back(wrap_finding(r, width));
      }
    }
    for (size_t i = 0; i < regions.size(); ++i) {
      for (size_t j = i + 1; j < regions.size(); ++j) {
        if (regions[i].size != 0 && regions[j].size != 0 &&
            overlap_is_fault(regions[i].region_class,
                             regions[j].region_class)) {
          pairs.emplace_back(i, j);
        }
      }
    }
  }
  for (const auto& [i, j] : pairs) {
    const MemRegion& a = regions[i];
    const MemRegion& b = regions[j];
    OverlapQuery q = build_overlap_query(
        solver_, a, b, width, "ov" + std::to_string(fresh_counter_++));
    smt::QueryPlanner::Outcome o = decide(q.formulas, q.x);
    if (query_timed_out(o.result,
                        "overlap check of " + a.path + " vs " + b.path,
                        out)) {
      return out;
    }
    if (o.result == smt::CheckResult::kSat) {
      out.push_back(overlap_finding(a, b, o.witness));
    }
  }
  return out;
}

}  // namespace llhsc::checkers
