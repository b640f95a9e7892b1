#include "checkers/semantic.hpp"

#include "checkers/crossref/context.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "checkers/interval_baseline.hpp"
#include "support/deadline.hpp"
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
std::unordered_map<uint32_t, uint32_t> cells_by_phandle(
    const crossref::AnalysisContext& ctx, const char* cells,
    uint32_t fallback) {
  std::unordered_map<uint32_t, uint32_t> out;
  for (const auto& [path, node] : ctx.nodes()) {
    const dts::Property* ph = node->find_property("phandle");
    auto phv = ph != nullptr ? ph->as_u32() : std::nullopt;
    if (!phv) continue;
    const dts::Property* c = node->find_property(cells);
    out[*phv] = c != nullptr ? c->as_u32().value_or(fallback) : fallback;
  }
  return out;
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

/// The one kSolverTimeout finding of a discharge (`where` names the query
/// that came back undecided).
Finding timeout_finding(const std::string& where, uint64_t budget_ms) {
  Finding f;
  f.kind = FindingKind::kSolverTimeout;
  f.subject = where;
  f.message =
      budget_ms > 0
          ? "solver query exceeded the " + std::to_string(budget_ms) +
                " ms budget; this and the remaining semantic checks were "
                "not decided"
          : "solver returned unknown; this semantic check was not decided";
  return f;
}

/// The formula-(7) query for one region pair, over `witness`. The witness
/// is pinned to max(base_a, base_b) (masked to `width`): for concrete
/// non-wrapping intervals that address is in the intersection iff the
/// intersection is non-empty, so the pin is equisatisfiable and makes the
/// reported witness independent of backend, batching, and model heuristics.
std::vector<logic::Formula> overlap_body(smt::Solver& solver,
                                         const MemRegion& a,
                                         const MemRegion& b, uint32_t width,
                                         logic::BvTerm witness) {
  auto& fa = solver.formulas();
  auto& bv = solver.bitvectors();
  auto in_range = [&](const MemRegion& r) {
    auto base_t = bv.bv_const(r.base, width);
    auto end_t = bv.bv_add(base_t, bv.bv_const(r.size, width));
    // base <= x < base + size; the wrap case is reported separately, and
    // for wrapped regions the conjunction below under-approximates.
    return fa.mk_and(bv.uge(witness, base_t), bv.ult(witness, end_t));
  };
  const uint64_t pin =
      std::max(mask_address(a.base, width), mask_address(b.base, width));
  return {in_range(a), in_range(b), bv.eq(witness, bv.bv_const(pin, width))};
}

/// Builds the equality queries over one claim set. Each claim's solver
/// terms (owner, then one per tuple cell) are created once, on first use,
/// and shared by every query that names the claim.
class ClaimQueries {
 public:
  /// `ns` namespaces the variables; `claims` must outlive the builder.
  ClaimQueries(smt::Solver& solver, const std::vector<Claim>& claims,
               std::string ns)
      : solver_(&solver),
        claims_(&claims),
        ns_(std::move(ns)),
        terms_(claims.size()) {}

  /// The query for claims i and j: owner and every tuple cell equal, each
  /// side fixed to its instance value so the query is self-contained
  /// (cache-portable) and non-empty even for zero-cell clock providers.
  std::vector<logic::Formula> build(size_t i, size_t j) {
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

  /// Claim i's terms fixed to its instance values; build() interleaves
  /// these with the pairwise equalities.
  std::vector<logic::Formula> fixings(size_t i) {
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

 private:
  const std::vector<logic::BvTerm>& terms(size_t i) {
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

  smt::Solver* solver_;
  const std::vector<Claim>* claims_;
  std::string ns_;
  std::vector<std::vector<logic::BvTerm>> terms_;  // per claim, lazily
};

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

std::vector<MemRegion> extract_regions(const dts::Tree& tree, Findings& out) {
  return extract_regions(crossref::AnalysisContext(tree), out);
}

std::vector<MemRegion> extract_regions(
    const crossref::AnalysisContext& ctx, Findings& out,
    const std::function<bool(const std::string&)>& keep) {
  // Cell widths resolve like Linux's of_n_addr_cells: the nearest ancestor
  // declaring #address-cells / #size-cells wins (spec defaults only when no
  // ancestor declares them). A pure spec-default reading would mis-parse the
  // running example's veth nodes, whose container inherits the root's 32-bit
  // addressing installed by delta d3. The context pre-computes exactly that
  // environment (plus the ranges translation), shared with the cross-
  // reference rules.
  std::vector<MemRegion> regions;
  for (const auto& [path, node] : ctx.nodes()) {
    if (path == "/" || (keep && !keep(path))) continue;
    extract_node_regions(ctx, *node, path, regions, out);
  }
  return regions;
}

std::vector<Claim> collect_interrupt_claims(
    const crossref::AnalysisContext& ctx) {
  // Pass 1: phandle -> #interrupt-cells, to know each claim's tuple stride.
  const auto interrupt_cells = cells_by_phandle(ctx, "#interrupt-cells", 1);

  // Pass 2: claims under each node's interrupt parent — its own
  // interrupt-parent, else the nearest ancestor's (DT spec); none, or a
  // malformed one, is owner 0.
  std::vector<Claim> claims;
  for (const auto& [path, node] : ctx.nodes()) {
    const dts::Property* irq = node->find_property("interrupts");
    if (irq == nullptr) continue;
    auto cells = irq->as_cells();
    if (!cells || cells->empty()) continue;
    const uint32_t parent = ctx.interrupt_parent_phandle(*node).value_or(0);
    size_t stride = 1;
    auto it = interrupt_cells.find(parent);
    if (it != interrupt_cells.end() && it->second != 0) stride = it->second;
    for (size_t off = 0, e = 0; off < cells->size(); off += stride, ++e) {
      Claim claim;
      claim.path = path;
      claim.provenance =
          !irq->provenance.empty() ? irq->provenance : node->provenance();
      claim.location = irq->location.valid() ? irq->location : node->location();
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
  return claims;
}

std::vector<Claim> collect_clock_claims(const crossref::AnalysisContext& ctx) {
  // Pass 1: phandle -> #clock-cells. A provider without #clock-cells is a
  // single-clock provider (specifier length 0) per the clock bindings.
  const auto clock_cells = cells_by_phandle(ctx, "#clock-cells", 0);

  // Pass 2: one claim per assigned-clocks entry. The stride is per-entry —
  // one phandle cell plus that provider's #clock-cells — so a property can
  // legally mix providers of different arity. An entry naming an unknown
  // phandle ends the parse of that property: the stride past it is
  // unknowable, and the dangling reference is the cross-reference rules'
  // finding, not ours.
  std::vector<Claim> claims;
  for (const auto& [path, node] : ctx.nodes()) {
    const dts::Property* ac = node->find_property("assigned-clocks");
    if (ac == nullptr) continue;
    auto cells = ac->as_cells();
    if (!cells || cells->empty()) continue;
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
          !ac->provenance.empty() ? ac->provenance : node->provenance();
      claim.location = ac->location.valid() ? ac->location : node->location();
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
  }
  return claims;
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

std::vector<SetFinding> discharge(smt::Solver& solver,
                                  std::span<const ObligationSet> sets,
                                  const SemanticOptions& options,
                                  const Decide& decide,
                                  smt::QueryPlanner* pruned) {
  std::vector<SetFinding> out;
  const uint32_t width = options.address_bits;
  auto& bv = solver.bitvectors();
  // The one exit for an undecided query: report it and stop, so a
  // pathological query degrades into a visible error, never a silent pass.
  auto undecided = [&](smt::CheckResult r, size_t a, size_t b,
                       const std::string& where) {
    if (r != smt::CheckResult::kUnknown) return false;
    out.push_back({timeout_finding(where, options.solver_timeout_ms), a, b});
    return true;
  };

  // Every set's regions in one list: at[k] = (set, region index).
  std::vector<std::pair<size_t, size_t>> at;
  for (size_t s = 0; s < sets.size(); ++s) {
    for (size_t i = 0; i < sets[s].regions.size(); ++i) at.emplace_back(s, i);
  }
  auto region = [&](size_t k) -> const MemRegion& {
    return sets[at[k].first].regions[at[k].second];
  };
  auto exclusive = [&](size_t k, size_t l) {
    const size_t group = sets[at[k].first].group;
    return at[k].first != at[l].first && group == sets[at[l].first].group &&
           group != ObligationSet::kAlwaysPresent;
  };

  // Region screen and pair selection. The planned path decides zero-size
  // and wrapped regions concretely (one solver query pruned per nonzero
  // region) and keeps only the pairs whose masked intervals the sweep-line
  // finds intersecting — exactly the pairs the solver can find
  // satisfiable. The exhaustive path decides every wrap check and every
  // fault-class pair of nonzero regions on the solver. Both list pairs in
  // (first, second) order, so the findings are byte-identical.
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<MemRegion> masked;  // planned: screen survivors, masked
  std::vector<size_t> survivor;   // masked[m] is region(survivor[m])
  for (size_t k = 0, s = 0; s < sets.size(); ++s) {
    for (const Finding& f : sets[s].extracted) out.push_back({f, s, s});
    for (const MemRegion& r : sets[s].regions) {
      const size_t here = k++;
      if (r.size == 0) {
        out.push_back({zero_size_finding(r), s, s});
        continue;
      }
      if (options.plan) {
        // The sweep reads base, size and class only: no strings copied.
        MemRegion m;
        m.base = mask_address(r.base, width);
        m.size = mask_address(r.size, width);
        m.region_class = r.region_class;
        if (region_wraps(m.base, m.size, width)) {
          out.push_back({wrap_finding(r, width), s, s});
          continue;
        }
        masked.push_back(std::move(m));
        survivor.push_back(here);
        continue;
      }
      const logic::Formula wraps = bv.uadd_overflow(
          bv.bv_const(r.base, width), bv.bv_const(r.size, width));
      const smt::CheckResult r_wrap = decide(s, s, {&wraps, 1}, {}).result;
      if (undecided(r_wrap, s, s, "wrap-around check of " + r.path)) {
        return out;
      }
      if (r_wrap == smt::CheckResult::kSat) {
        out.push_back({wrap_finding(r, width), s, s});
      }
    }
  }
  if (options.plan) {
    for (const OverlapPair& p : find_overlaps_sweepline(
             masked, [&](size_t m, size_t n) {
               return exclusive(survivor[m], survivor[n]);
             })) {
      pairs.emplace_back(survivor[p.first], survivor[p.second]);
    }
    if (pruned != nullptr) {
      // Queries the exhaustive path would issue: one wrap check per nonzero
      // region plus every pair of nonzero regions whose class combination
      // is a fault. Counted by class tally so the pruning counter is exact
      // without an O(n^2) walk.
      uint64_t nonzero = 0, ipc = 0, memory = 0;
      for (size_t k = 0; k < at.size(); ++k) {
        if (region(k).size == 0) continue;
        ++nonzero;
        if (region(k).region_class == RegionClass::kIpc) ++ipc;
        if (region(k).region_class == RegionClass::kMemory) ++memory;
      }
      const uint64_t queryable = nonzero * (nonzero - 1) / 2 - ipc * memory;
      pruned->note_pruned(nonzero + queryable - pairs.size());
    }
  } else {
    for (size_t k = 0; k < at.size(); ++k) {
      for (size_t l = k + 1; l < at.size(); ++l) {
        if (region(k).size != 0 && region(l).size != 0 &&
            overlap_is_fault(region(k).region_class,
                             region(l).region_class) &&
            !exclusive(k, l)) {
          pairs.emplace_back(k, l);
        }
      }
    }
  }

  uint64_t fresh = 0;  // variable namespaces, for readable solver dumps
  for (const auto& [k, l] : pairs) {
    const MemRegion& a = region(k);
    const MemRegion& b = region(l);
    const size_t sa = at[k].first, sb = at[l].first;
    const logic::BvTerm x =
        solver.bv_var("ov" + std::to_string(fresh++) + ".x", width);
    const smt::QueryPlanner::Outcome o =
        decide(sa, sb, overlap_body(solver, a, b, width, x), x);
    if (undecided(o.result, sa, sb,
                  "overlap check of " + a.path + " vs " + b.path)) {
      return out;
    }
    if (o.result == smt::CheckResult::kSat) {
      out.push_back({overlap_finding(a, b, o.witness), sa, sb});
    }
  }

  // Interrupt and clock uniqueness through the solver (the paper's
  // conclusions name interrupts alongside memory addresses as
  // bit-vector-validated): two claims collide iff they name the same owner
  // (interrupt parent / clock provider) and their full tuples are equal.
  // Structurally this is equality, but routing it through the solver keeps
  // every semantic rule in one constraint store (the paper's extensibility
  // argument, §VI) and allows symbolic lines later. Claims pair only within
  // a set: a lifted claim set is the whole claim environment of its
  // variant. The planned path queries only pairs that share an (owner,
  // tuple) bucket; the exhaustive path queries every comparable pair. Both
  // walk pairs in (i, j) order, so the findings are byte-identical.
  using Collision = Finding (*)(const Claim&, const Claim&);
  struct ClaimKind {
    const std::vector<Claim> ObligationSet::*claims;
    const char* name;
    Collision collision;
  };
  static constexpr ClaimKind kKinds[] = {
      {&ObligationSet::irq, "interrupt", interrupt_collision_finding},
      {&ObligationSet::clock, "clock", clock_collision_finding}};
  for (size_t s = 0; s < sets.size(); ++s) {
    for (const ClaimKind& kind : kKinds) {
      const std::vector<Claim>& claims = sets[s].*kind.claims;
      ClaimQueries queries(solver, claims, "cl" + std::to_string(fresh++));
      std::vector<std::pair<size_t, size_t>> candidates;
      if (options.plan) {
        ClaimPairs cp = claim_pairs(claims);
        if (pruned != nullptr) {
          pruned->note_pruned(cp.comparable - cp.candidates.size());
        }
        candidates = std::move(cp.candidates);
      } else {
        // The exhaustive path shares its solver across every comparable
        // pair, so it asserts the fixings once as facts: each query's
        // assumed fixings are then true at level 0 and only its equalities
        // are searched.
        for (size_t i = 0; i < claims.size(); ++i) {
          for (logic::Formula f : queries.fixings(i)) solver.add(f);
          for (size_t j = i + 1; j < claims.size(); ++j) {
            if (claims[i].owner_phandle == claims[j].owner_phandle &&
                claims[i].tuple.size() == claims[j].tuple.size()) {
              candidates.emplace_back(i, j);
            }
          }
        }
      }
      for (const auto& [i, j] : candidates) {
        const smt::CheckResult r = decide(s, s, queries.build(i, j), {}).result;
        if (undecided(r, s, s,
                      std::string(kind.name) + " check of " + claims[i].path +
                          " vs " + claims[j].path)) {
          return out;
        }
        if (r == smt::CheckResult::kSat) {
          out.push_back({kind.collision(claims[i], claims[j]), s, s});
        }
      }
    }
  }
  return out;
}

SemanticChecker::SemanticChecker(smt::Backend backend, SemanticOptions options)
    : options_(options),
      solver_(backend),
      planner_(solver_, options.plan ? options.cache_dir : std::string()) {}

Findings SemanticChecker::check(const dts::Tree& tree) {
  return check(crossref::AnalysisContext(tree));
}

Findings SemanticChecker::check(const crossref::AnalysisContext& ctx) {
  Findings out;
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
  ObligationSet set;
  set.regions = extract_regions(ctx, set.extracted);
  set.irq = collect_interrupt_claims(ctx);
  set.clock = collect_clock_claims(ctx);
  Findings found = discharge_one(set);
  out.insert(out.end(), std::make_move_iterator(found.begin()),
             std::make_move_iterator(found.end()));
  return out;
}

Findings SemanticChecker::check_regions(const std::vector<MemRegion>& regions) {
  ObligationSet set;
  set.regions = regions;
  return discharge_one(set);
}

Findings SemanticChecker::discharge_one(const ObligationSet& set) {
  solver_.set_deadline(
      options_.solver_timeout_ms > 0
          ? support::Deadline::after_ms(options_.solver_timeout_ms)
          : support::Deadline());
  // The planner, or — the exhaustive reference path — the solver directly
  // with the body as assumptions.
  auto decide = [&](size_t, size_t, std::span<const logic::Formula> body,
                    logic::BvTerm witness) {
    if (options_.plan) return planner_.check(body, witness);
    smt::QueryPlanner::Outcome o;
    o.result = solver_.check_assuming(body);
    if (o.result == smt::CheckResult::kSat && witness.valid()) {
      o.witness = solver_.model_bv(witness);
    }
    return o;
  };
  Findings out;
  for (SetFinding& f :
       discharge(solver_, {&set, 1}, options_, decide, &planner_)) {
    out.push_back(std::move(f.finding));
  }
  return out;
}

}  // namespace llhsc::checkers
