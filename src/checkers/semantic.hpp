// Semantic checker — paper §IV-C. Extracts memory regions from every node's
// `reg` property (interpreted with the parent's #address-cells/#size-cells,
// so cell-width changes such as the 64->32-bit truncation of delta d3 are
// *felt* by the interpretation, exactly the failure mode the paper targets),
// then discharges region disjointness through bit-vector SMT: regions i and j
// overlap iff  exists x: b_i <= x < b_i+s_i  /\  b_j <= x < b_j+s_j  — the
// single-witness form of the paper's formula (7). A satisfying model yields
// the collision witness address reported in each finding.
//
// Additional checks, all always on: base+size wrap-around (uadd_overflow),
// zero-size regions (warnings), per-cell width violations, and interrupt-line
// and clock uniqueness (the "interrupts" extension named in the paper's
// conclusions): two claims of one full `interrupts` tuple under one
// interrupt parent, or two `assigned-clocks` consumers pinning one
// (provider, specifier) clock, are a configuration fault.
//
// discharge() is the one loop over these obligations: the per-product
// SemanticChecker passes one always-present set, and the lifted family
// engine (lift/engine.cpp) passes one set per variant and decides each body
// under the variants' presence condition.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "checkers/finding.hpp"
#include "dts/tree.hpp"
#include "smt/query_plan.hpp"
#include "smt/solver.hpp"

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

// The claim collectors decode `interrupts` and `assigned-clocks` cells
// themselves, not through the device graph's edges: their stride policy
// differs (an interrupt parent without a usable #interrupt-cells has
// stride 1, a clock provider without #clock-cells 0 argument cells, a
// phandle carried twice means its last holder, and `interrupts` has no
// implicit-controller fallback), so edges would change verdicts. Node
// order, paths and the interrupt parent come from the context.

/// Collects one claim per `interrupts` tuple (stride = the interrupt
/// parent's #interrupt-cells), resolving interrupt-parent by inheritance.
[[nodiscard]] std::vector<Claim> collect_interrupt_claims(
    const crossref::AnalysisContext& ctx);

/// Collects one claim per `assigned-clocks` entry (stride = 1 phandle cell +
/// the provider's #clock-cells). Entries whose provider phandle is unknown
/// end the parse (the stride is unknowable; the cross-reference rules
/// report the dangling phandle).
[[nodiscard]] std::vector<Claim> collect_clock_claims(
    const crossref::AnalysisContext& ctx);

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

struct SemanticOptions {
  /// Address space width in bits for the SMT encoding.
  uint32_t address_bits = 64;
  /// Wall-clock budget in ms for one check() call's solver work (0 =
  /// unlimited). When the budget runs out, the remaining queries are skipped
  /// and one kSolverTimeout error finding names the query that ran out — a
  /// pathological query degrades into a visible error, never a hang or a
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

/// One obligation set: regions plus interrupt and clock claims that are
/// present together — one product, or one lifted variant.
struct ObligationSet {
  std::vector<MemRegion> regions;
  std::vector<Claim> irq;
  std::vector<Claim> clock;
  /// Findings of the extraction that produced the set; discharge() reports
  /// them ahead of the set's own.
  Findings extracted;
  /// Sets of one group are never present together (the patterns of one
  /// lifted component); kAlwaysPresent excludes nothing.
  static constexpr size_t kAlwaysPresent = SIZE_MAX;
  size_t group = kAlwaysPresent;
};

/// A finding of discharge(), tagged with the set(s) it came from: a == b
/// for a single-set obligation, the two regions' sets for an overlap.
struct SetFinding {
  Finding finding;
  size_t a = 0;
  size_t b = 0;
};

/// Decides one query body for the obligation between sets `a` and `b`. The
/// body is self-contained (concrete values and its own fresh variables);
/// `witness` is the term whose model value a kSat outcome reports.
using Decide = std::function<smt::QueryPlanner::Outcome(
    size_t a, size_t b, std::span<const logic::Formula> body,
    logic::BvTerm witness)>;

/// The one semantic obligation loop, for the per-product checker (one set)
/// and the lifted engine (one set per variant). Bodies are built on
/// `solver`, which `decide` must answer for. In order:
///   - each set's extracted findings and its region screen: a zero-size
///     region is a warning; a nonzero one is checked for base+size
///     wrapping the address_bits-bit space;
///   - region pairs, by the formula-(7) query with the witness pinned to
///     max(base_a, base_b): under options.plan the screen decides wraps
///     concretely and only pairs of survivors the sweep-line finds
///     intersecting are decided; otherwise every wrap and every fault-class
///     pair of nonzero regions is. Pairs from two sets of one group are
///     never decided;
///   - within each set, interrupt then clock claim pairs: under plan the
///     (owner, tuple) buckets of claim_pairs, otherwise every comparable
///     pair (whose claim fixings are then asserted on `solver` as facts).
/// The first kUnknown ends the loop with one kSolverTimeout finding. Under
/// plan, `pruned` (when given) is told how many of the exhaustive path's
/// queries were never built, counting every set as present together.
[[nodiscard]] std::vector<SetFinding> discharge(
    smt::Solver& solver, std::span<const ObligationSet> sets,
    const SemanticOptions& options, const Decide& decide,
    smt::QueryPlanner* pruned = nullptr);

/// Extracts all regions from reg properties. Nodes whose parent declares
/// #size-cells = 0 (e.g. cpu cores, where reg is an id) are skipped.
/// Cell-width violations (a cell exceeding 32 bits, or an entry not covered
/// by a full set of cells) are reported through `out`.
[[nodiscard]] std::vector<MemRegion> extract_regions(const dts::Tree& tree,
                                                     Findings& out);
/// Same extraction over a pre-built cross-reference context, so the cells
/// environment and `ranges` translation are computed once and shared with
/// the cross-reference rules. With `keep`, only the nodes whose path it
/// accepts are extracted: a region's and a finding's path is its node's.
[[nodiscard]] std::vector<MemRegion> extract_regions(
    const crossref::AnalysisContext& ctx, Findings& out,
    const std::function<bool(const std::string&)>& keep = {});

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
  /// Discharges `set` as the one always-present obligation set under this
  /// call's solver budget (options_.solver_timeout_ms).
  Findings discharge_one(const ObligationSet& set);

  SemanticOptions options_;
  smt::Solver solver_;
  smt::QueryPlanner planner_;
  bool cache_error_reported_ = false;
};

}  // namespace llhsc::checkers
