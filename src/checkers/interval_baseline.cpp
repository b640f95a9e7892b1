#include "checkers/interval_baseline.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace llhsc::checkers {

std::vector<OverlapPair> find_overlaps_sweepline(
    const std::vector<MemRegion>& regions,
    const std::function<bool(size_t, size_t)>& skip) {
  // Sort region indices by base address; scan with an active set of regions
  // whose end exceeds the current base. With the active set kept as a vector
  // pruned on entry, the scan is O(n log n + k·a) where a is the active-set
  // size — linear for sparse layouts, degrading gracefully for dense ones.
  std::vector<size_t> order(regions.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return regions[a].base < regions[b].base;
  });

  std::vector<OverlapPair> out;
  std::vector<size_t> active;
  for (size_t idx : order) {
    const MemRegion& r = regions[idx];
    if (r.size == 0) continue;
    // Retire regions that end at or before this base.
    std::erase_if(active, [&](size_t a) {
      return regions[a].base + regions[a].size <= r.base;
    });
    for (size_t a : active) {
      // Active regions all have end > r.base and base <= r.base: overlap.
      if (!overlap_is_fault(regions[a].region_class, r.region_class)) continue;
      OverlapPair pair{std::min(a, idx), std::max(a, idx)};
      if (skip && skip(pair.first, pair.second)) continue;
      out.push_back(pair);
    }
    active.push_back(idx);
  }
  std::sort(out.begin(), out.end(), [](const OverlapPair& a, const OverlapPair& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  return out;
}

Findings check_regions_baseline(const std::vector<MemRegion>& regions) {
  Findings out;
  for (const OverlapPair& pair : find_overlaps_sweepline(regions)) {
    const MemRegion& a = regions[pair.first];
    const MemRegion& b = regions[pair.second];
    Finding f;
    f.kind = FindingKind::kAddressOverlap;
    f.subject = a.path + "[" + std::to_string(a.entry_index) + "]";
    f.other_subject = b.path + "[" + std::to_string(b.entry_index) + "]";
    f.delta = !b.provenance.empty() ? b.provenance : a.provenance;
    f.base_a = a.base;
    f.size_a = a.size;
    f.base_b = b.base;
    f.size_b = b.size;
    f.message = "regions " + support::hex(a.base) + "+" + support::hex(a.size) +
                " and " + support::hex(b.base) + "+" + support::hex(b.size) +
                " overlap (structural check, no witness)";
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace llhsc::checkers
