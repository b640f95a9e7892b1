// Machine-readable checker results. Checkers emit Findings (data, not text);
// examples and the pipeline render them. `delta` carries provenance so a
// finding on a generated DTS names the delta module that caused it (§III-B).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace llhsc::checkers {

enum class FindingKind : uint8_t {
  // Resource allocation (§IV-A)
  kInvalidVmProduct,       // a VM's selection violates the feature model
  kExclusivityViolation,   // same exclusive resource in two VMs
  kInfeasibleAllocation,   // no allocation exists for the requested VM count
  // Syntactic (§IV-B)
  kMissingRequired,        // required property absent
  kConstMismatch,          // const-constrained property has a different value
  kEnumViolation,          // value outside the allowed enum
  kItemCountViolation,     // minItems/maxItems violated
  kRegShapeViolation,      // reg size not a positive multiple of the stride
  kTypeMismatch,           // property value has the wrong shape
  kPatternMismatch,        // string does not match the schema pattern
  kUnknownProperty,        // additionalProperties: false violated
  kChildRuleViolation,     // child count/schema rules violated
  kNoSchema,               // Finding's default kind; no checker emits it
  // Semantic (§IV-C)
  kAddressOverlap,         // two regions overlap
  kRegWidthViolation,      // cell value exceeds the configured cell width
  kSizeOverflow,           // base + size wraps around the address space
  kZeroSizeRegion,         // region with size 0 (warning)
  kInterruptCollision,     // two devices claim the same interrupt line
  kClockCollision,         // two devices assign the same clock of a provider
  kSolverTimeout,          // a solver query exceeded its deadline
  kCacheUnavailable,       // --cache-dir unusable; checks ran uncached
  // Lint (dtc-style structural warnings)
  kNameConvention,         // node/property name violates the DT spec charset
  kUnitAddressMismatch,    // unit address disagrees with the first reg entry
  kUnitAddressMissing,     // node has reg but no unit address (or vice versa)
  kDuplicateUnitAddress,   // two siblings share a unit address
  kMissingCells,           // children use reg but parent declares no cells
  kBadStatusValue,         // status outside okay/disabled/reserved/fail*
  kRangesViolation,        // child reg not covered by the bus's ranges
  // Cross-reference engine (rule ids in checkers/crossref/rules.hpp)
  kDanglingPhandle,        // phandle value with no owning node
  kDuplicatePhandle,       // two nodes carry the same phandle value
  kCellsArityViolation,    // specifier length disagrees with provider #*-cells
  kMissingProviderCells,   // referenced provider lacks its #*-cells property
  kInterruptTreeCycle,     // interrupt-parent chain loops
  kOrphanProvider,         // provider node no phandle reference can reach
  // Device-graph dataflow (rule ids in checkers/graph/rules.hpp)
  kProviderCycle,          // clock/reset/... provider dependencies loop
  kDisabledProviderDependency,  // okay consumer depends on disabled provider
  kExclusiveProviderClaim, // two VMs claim the same exclusive provider
  // Family-based (lifted) product-line checking (src/lift)
  kDeriveFailure,          // a class of configurations fails delta derivation
  kEnumerationCapped,      // product enumeration stopped at --max-products
};

[[nodiscard]] std::string_view to_string(FindingKind k);

enum class FindingSeverity : uint8_t { kWarning, kError };

/// One step of a defect path (a cycle member, a hop of a dependency chain).
/// Rendered as SARIF codeFlows/relatedLocations and the JSON "flow" array;
/// the text renderer prints one indented "via" line per step.
struct FlowStep {
  support::SourceLocation location;
  /// Node path of this step.
  std::string subject;
  /// Role of the step in the path ("depends on /soc/clk via clocks").
  std::string note;
};

struct Finding {
  FindingKind kind = FindingKind::kNoSchema;
  FindingSeverity severity = FindingSeverity::kError;
  /// Stable rule id for registry-driven checkers (dtc -W style). Empty for
  /// the fixed-rule checkers; rule_id() falls back to the kind name.
  std::string rule;
  /// Source position of the offending node/property (invalid when the tree
  /// was synthesized programmatically).
  support::SourceLocation location;
  /// Node path (or VM index rendering) the finding is about.
  std::string subject;
  /// Property involved, when applicable.
  std::string property;
  /// Second party for pairwise findings (the other overlapping region).
  std::string other_subject;
  /// Delta provenance ("" = core module).
  std::string delta;
  /// Address payload for semantic findings.
  uint64_t base_a = 0, size_a = 0, base_b = 0, size_b = 0;
  /// Overlap witness address produced by the solver model.
  uint64_t witness = 0;
  /// Human-readable explanation.
  std::string message;
  /// Defect path for whole-graph findings (empty for single-site findings).
  std::vector<FlowStep> flow;

  /// `rule` when set, else the kind name — the id reports key on.
  [[nodiscard]] std::string_view rule_id() const {
    return rule.empty() ? to_string(kind) : std::string_view(rule);
  }

  [[nodiscard]] std::string render() const;
};

using Findings = std::vector<Finding>;

/// Counts findings at error severity.
[[nodiscard]] size_t error_count(const Findings& findings);
/// True when `findings` contains a finding of `kind`.
[[nodiscard]] bool contains(const Findings& findings, FindingKind kind);
/// Renders all findings, one per line.
[[nodiscard]] std::string render(const Findings& findings);
/// Stable sort by (source location, rule id, subject). A session applies
/// this per unit, so a parallel run renders byte-identically to a serial one.
void sort_by_location(Findings& findings);

}  // namespace llhsc::checkers
