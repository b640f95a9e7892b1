// Structural overlap baseline: the comparator a non-SMT tool (dt-schema
// extended with interval arithmetic) could implement. A sweep-line over
// region endpoints finds all overlapping pairs in O(n log n + k). It is
// orders of magnitude faster than the solver path (see
// bench_semantic_overlap) but cannot produce witness addresses, reason about
// symbolic placements, or share a constraint store with the feature-model
// and schema axioms — which is the paper's argument for SMT. The property
// tests keep it verdict-equivalent with SemanticChecker on concrete inputs.
#pragma once

#include <functional>
#include <vector>

#include "checkers/semantic.hpp"

namespace llhsc::checkers {

struct OverlapPair {
  size_t first = 0;   // indices into the input region vector
  size_t second = 0;
  friend bool operator==(const OverlapPair&, const OverlapPair&) = default;
};

/// All pairs of regions that overlap and whose class combination is a fault
/// (same rules as the semantic checker), except those `skip(first, second)`
/// rejects (the lifted discharge's never-co-present slices). Pairs are
/// reported with first < second, sorted lexicographically. Only each
/// region's base, size and class are read.
[[nodiscard]] std::vector<OverlapPair> find_overlaps_sweepline(
    const std::vector<MemRegion>& regions,
    const std::function<bool(size_t, size_t)>& skip = {});

/// Findings-shaped adapter so the baseline can slot into the pipeline for
/// A/B comparisons. No witnesses (structural tools cannot produce them).
[[nodiscard]] Findings check_regions_baseline(
    const std::vector<MemRegion>& regions);

}  // namespace llhsc::checkers
