// Incremental session re-checking over a DTS product line — the one driver
// of the paper's Fig. 2 workflow, stages 1–4 (docs/pipeline.md). A session
// request names a core DTS, a delta-module file, the products to derive
// (feature selections), and checker options; everything expensive funnels
// through the ArtifactStore:
//
//   core text      -> TreeArtifact        (include-aware content key)
//   deltas text    -> DeltaArtifact       (per-module fingerprints)
//   (core, deltas) -> ProductLineArtifact (shares both, copies neither)
//   (core, active-module fingerprints in application order)
//                  -> ComposedArtifact    (derived tree)
//   (composed, options) -> CheckArtifact  (checker verdict + counters)
//
// The composed key is built from the fingerprints of exactly the modules a
// product activates, in application order. Editing one delta module
// therefore re-derives only the products that activate it: every other
// product's composed key is unchanged and its cached verdict is reused.
// Editing the core — or any .dtsi it includes — changes the core's
// effective key, which flows into every product-line, composed, and check
// key, so the whole session re-derives, as it must.
// The request reports the store-counter delta so callers (and benches) can
// assert that incrementality — rebuilds, hits — rather than trust it.
// Requests and results are the api:: structs (api/llhsc.hpp).
//
// The daemon keeps one store across requests; `llhsc demo`, the examples
// and the benches pass a store local to the call, then emit the checked
// trees (core/emit.hpp, stage 5).
#pragma once

#include <vector>

#include "api/llhsc.hpp"
#include "core/emit.hpp"
#include "obs/obs.hpp"
#include "server/artifact_store.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

/// A session's result plus what in-process callers read beyond the wire.
struct SessionRun : api::SessionResult {
  /// Parallel to `units`: each unit's findings, and its composed tree when
  /// the unit is a product or the platform whose derive succeeded.
  std::vector<core::CheckedUnit> checked;
  /// The run's obs events: the request prologue, allocation and lifted
  /// units, then each product's (derive and battery) in declaration order,
  /// then the cross-unit analysis. The same sequence for every `jobs`,
  /// timings aside. Also spliced into the caller's sink, if one is set.
  std::vector<obs::Event> events;

  /// Every unit's findings, in unit order.
  [[nodiscard]] checkers::Findings findings() const;
};

/// Products (and the platform) are derived and checked on `jobs` threads
/// (1 = on the caller, 0 = one per hardware thread), one obs unit each;
/// results merge in declaration order, so every output but the timings is
/// the same for any `jobs`. Identical products share one derive and one
/// check through the store. The daemon passes 1: it already runs requests
/// in parallel. A limited `deadline` (the daemon's request deadline) clamps
/// every unit's solver budget but not the verdict keys.
[[nodiscard]] SessionRun run_session_check(
    const api::SessionRequest& request, ArtifactStore& store,
    const support::Deadline& deadline = {}, unsigned jobs = 1);

}  // namespace llhsc::server
