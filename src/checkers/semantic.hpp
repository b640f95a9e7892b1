// Semantic checker — paper §IV-C. Extracts memory regions from every node's
// `reg` property (interpreted with the parent's #address-cells/#size-cells,
// so cell-width changes such as the 64->32-bit truncation of delta d3 are
// *felt* by the interpretation, exactly the failure mode the paper targets),
// then discharges region disjointness through bit-vector SMT: regions i and j
// overlap iff  exists x: b_i <= x < b_i+s_i  /\  b_j <= x < b_j+s_j  — the
// single-witness form of the paper's formula (7). A satisfying model yields
// the collision witness address reported in each finding.
//
// Additional checks: base+size wrap-around (uadd_overflow), zero-size
// regions, per-cell width violations, and interrupt-line and clock
// uniqueness (the "interrupts" extension named in the paper's conclusions).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checkers/finding.hpp"
#include "dts/tree.hpp"
#include "smt/query_plan.hpp"
#include "smt/solver.hpp"
#include "support/deadline.hpp"

namespace llhsc::checkers {

namespace crossref {
class AnalysisContext;
}

/// What a region is, which decides which overlaps are faults. IPC windows
/// (veth shared memory) are carved out of RAM by design — Bao's Listing 6
/// places the ipc at 0x70000000 inside the second memory bank — so
/// ipc-over-memory is legal while every other overlap is a fault.
enum class RegionClass : uint8_t { kMemory, kDevice, kIpc };

[[nodiscard]] std::string_view to_string(RegionClass c);

/// One address range extracted from a reg entry. `base` is the CPU-view
/// address after translating through every ancestor bus's `ranges`;
/// `local_base` is the raw value written in reg (they differ only under
/// non-identity ranges).
struct MemRegion {
  std::string path;        // node path
  size_t entry_index = 0;  // which (address, size) pair within reg
  uint64_t base = 0;
  uint64_t size = 0;
  uint64_t local_base = 0;
  std::string provenance;  // delta that produced the property
  support::SourceLocation location;  // of the reg property
  RegionClass region_class = RegionClass::kDevice;

  [[nodiscard]] bool is_memory() const {
    return region_class == RegionClass::kMemory;
  }
};

/// True when an overlap between the two classes is a fault.
[[nodiscard]] bool overlap_is_fault(RegionClass a, RegionClass b);

/// One uniqueness claim: an `interrupts` tuple under its interrupt parent,
/// or an `assigned-clocks` entry under its clock provider. Two claims
/// collide iff they name the same owner and their tuples are equal cell by
/// cell; tuple[0] is the line/clock named in findings.
struct Claim {
  std::string path;
  std::string provenance;
  support::SourceLocation location;
  uint32_t owner_phandle = 0;  // interrupt parent / clock provider
  size_t entry_index = 0;
  std::vector<uint64_t> tuple;  // cells, masked to 32 bits
};

// The claim collectors keep their own walk, not the device graph's edges:
// their stride policy differs (an interrupt parent without a usable
// #interrupt-cells has stride 1, a clock provider without #clock-cells 0
// argument cells, a phandle carried twice means its last holder, and
// `interrupts` has no implicit-controller fallback), so edges would
// change verdicts.

/// Collects one claim per `interrupts` tuple (stride = the interrupt
/// parent's #interrupt-cells), resolving interrupt-parent by inheritance.
[[nodiscard]] std::vector<Claim> collect_interrupt_claims(
    const dts::Tree& tree);

/// Collects one claim per `assigned-clocks` entry (stride = 1 phandle cell +
/// the provider's #clock-cells). Entries whose provider phandle is unknown
/// end the parse (the stride is unknowable; the cross-reference rules
/// report the dangling phandle).
[[nodiscard]] std::vector<Claim> collect_clock_claims(const dts::Tree& tree);

// -- Finding builders, shared verbatim by the per-product checker and the
// -- lifted family engine so both report byte-identical defects.
[[nodiscard]] Finding zero_size_finding(const MemRegion& r);
[[nodiscard]] Finding wrap_finding(const MemRegion& r, uint32_t width);
[[nodiscard]] Finding overlap_finding(const MemRegion& a, const MemRegion& b,
                                      uint64_t witness);
[[nodiscard]] Finding interrupt_collision_finding(const Claim& a,
                                                  const Claim& b);
[[nodiscard]] Finding clock_collision_finding(const Claim& a, const Claim& b);

/// The concrete screen in front of the pairwise overlap obligation, shared
/// by the planned checker and the lifted engine: zero-size regions yield a
/// zero_size_finding (when `warn_zero_size`), regions whose masked
/// base+size wraps the `width`-bit space yield a wrap_finding (their
/// in-range predicate is empty, so they cannot overlap anything), and every
/// other region survives in the solver's w-bit view for the sweep-line.
struct RegionScreen {
  std::vector<MemRegion> masked;  // survivors, base and size masked
  std::vector<size_t> index;      // masked[k] is regions[index[k]]
};
[[nodiscard]] RegionScreen screen_regions(const std::vector<MemRegion>& regions,
                                          uint32_t width, bool warn_zero_size,
                                          Findings& out);

/// The formula-(7) query for one region pair. The witness is pinned to
/// max(base_a, base_b) (masked to `width`): for concrete non-wrapping
/// intervals that address is in the intersection iff the intersection is
/// non-empty, so the pin is equisatisfiable and makes the reported witness
/// independent of backend, batching, and model heuristics. `ns` namespaces
/// the witness variable (callers pass a fresh counter-derived prefix).
struct OverlapQuery {
  std::vector<logic::Formula> formulas;
  logic::BvTerm x;
};
[[nodiscard]] OverlapQuery build_overlap_query(smt::Solver& solver,
                                               const MemRegion& a,
                                               const MemRegion& b,
                                               uint32_t width,
                                               const std::string& ns);

/// The candidate pairs of claim uniqueness. Claims with a different owner
/// or tuple arity are never compared; of the comparable pairs, only those
/// in one (owner, tuple) bucket can collide, so the rest are pruned.
struct ClaimPairs {
  /// Same-bucket pairs (i < j), in the exhaustive loop's (i, j) order.
  std::vector<std::pair<size_t, size_t>> candidates;
  /// Pairs with the same owner and arity: the exhaustive query count.
  uint64_t comparable = 0;
};
[[nodiscard]] ClaimPairs claim_pairs(const std::vector<Claim>& claims);

/// Builds the equality queries over one claim set. Each claim's solver
/// terms (owner, then one per tuple cell) are created once, on first use,
/// and shared by every query that names the claim.
class ClaimQueries {
 public:
  /// `ns` namespaces the variables; `claims` must outlive the builder.
  ClaimQueries(smt::Solver& solver, const std::vector<Claim>& claims,
               std::string ns);

  /// The query for claims i and j: owner and every tuple cell equal, each
  /// side fixed to its instance value so the query is self-contained
  /// (cache-portable) and non-empty even for zero-cell clock providers.
  [[nodiscard]] std::vector<logic::Formula> build(size_t i, size_t j);

  /// Claim i's terms fixed to its instance values; build() interleaves
  /// these with the pairwise equalities.
  [[nodiscard]] std::vector<logic::Formula> fixings(size_t i);

 private:
  const std::vector<logic::BvTerm>& terms(size_t i);

  smt::Solver* solver_;
  const std::vector<Claim>* claims_;
  std::string ns_;
  std::vector<std::vector<logic::BvTerm>> terms_;  // per claim, lazily
};

struct SemanticOptions {
  /// Address space width in bits for the SMT encoding.
  uint32_t address_bits = 64;
  /// Treat zero-size regions as findings (warnings).
  bool warn_zero_size = true;
  /// Check interrupt-line uniqueness: two claims of one full `interrupts`
  /// tuple under the same interrupt parent are a configuration fault.
  bool check_interrupts = true;
  /// Check `assigned-clocks` uniqueness: two consumers pinning the same
  /// (provider, specifier) clock is a configuration fault, same shape as the
  /// interrupt-line check.
  bool check_clocks = true;
  /// Wall-clock budget in ms for one check() call's solver work (0 =
  /// unlimited). When the budget runs out, the remaining queries are skipped
  /// and one kSolverTimeout error finding reports how many were dropped —
  /// a pathological query degrades into a visible error, never a hang or a
  /// silent pass.
  uint64_t solver_timeout_ms = 0;
  /// Route queries through the smt::QueryPlanner: structurally decidable
  /// queries (concrete wrap checks, pairs the sweep-line prefilter proves
  /// disjoint, claims in singleton (owner, tuple) buckets) never reach the
  /// solver, and surviving queries are batched onto one incremental
  /// instance under assumption guards. Findings are byte-identical either
  /// way (property-tested); false exists for A/B comparison and for tests
  /// that need every query to hit the backend.
  bool plan = true;
  /// Directory for the persistent query-result cache (empty = no cache).
  /// Only consulted when `plan` is set. A warm cache answers repeated
  /// queries without any solver work; entries are invalidated by backend
  /// and format-version changes (see smt::QueryCache).
  std::string cache_dir;
};

/// Extracts all regions from reg properties. Nodes whose parent declares
/// #size-cells = 0 (e.g. cpu cores, where reg is an id) are skipped.
/// Cell-width violations (a cell exceeding 32 bits, or an entry not covered
/// by a full set of cells) are reported through `out`.
[[nodiscard]] std::vector<MemRegion> extract_regions(const dts::Tree& tree,
                                                     Findings& out);
/// Same extraction over a pre-built cross-reference context, so the cells
/// environment and `ranges` translation are computed once and shared with
/// the cross-reference rules.
[[nodiscard]] std::vector<MemRegion> extract_regions(
    const crossref::AnalysisContext& ctx, Findings& out);

class SemanticChecker {
 public:
  explicit SemanticChecker(smt::Backend backend = smt::Backend::kBuiltin,
                           SemanticOptions options = {});

  /// Full semantic check of one tree (builds a private context).
  [[nodiscard]] Findings check(const dts::Tree& tree);
  /// Full semantic check over the check's shared context.
  [[nodiscard]] Findings check(const crossref::AnalysisContext& ctx);

  /// Disjointness check over pre-extracted regions (used by benches to sweep
  /// region counts without re-parsing).
  [[nodiscard]] Findings check_regions(const std::vector<MemRegion>& regions);

  [[nodiscard]] uint64_t solver_checks() const { return solver_.stats().checks; }

  /// Planner counters for the last/current run (all zero when options_.plan
  /// is false — the exhaustive path bypasses the planner entirely).
  [[nodiscard]] const smt::QueryPlanStats& plan_stats() const {
    return planner_.stats();
  }

 private:
  /// Interrupt or clock uniqueness over `claims`; `kind` names the check in
  /// a timeout finding ("interrupt check of ...").
  Findings check_claims(const std::vector<Claim>& claims,
                        const std::string& kind,
                        Finding (*collision)(const Claim&, const Claim&));
  Findings check_regions_impl(const std::vector<MemRegion>& regions);
  /// Decides one query: through the planner, or — the exhaustive reference
  /// path — directly on the solver with the formulas as assumptions.
  smt::QueryPlanner::Outcome decide(std::span<const logic::Formula> fs,
                                    logic::BvTerm witness = {});
  /// Starts one check() call's solver budget from options_.solver_timeout_ms.
  void arm_deadline();
  /// True when the last query was cut off; records a kSolverTimeout finding
  /// once per check() call (`where` names the query that hit the limit).
  bool query_timed_out(smt::CheckResult r, const std::string& where,
                       Findings& out);

  SemanticOptions options_;
  smt::Solver solver_;
  smt::QueryPlanner planner_;
  uint64_t fresh_counter_ = 0;
  support::Deadline deadline_;
  bool timeout_reported_ = false;
  bool cache_error_reported_ = false;
  size_t skipped_queries_ = 0;
};

}  // namespace llhsc::checkers
