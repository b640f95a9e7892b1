// Incremental session re-checking over a DTS product line. A session
// request names a core DTS, a delta-module file, the products to derive
// (feature selections), and checker options; everything expensive funnels
// through the ArtifactStore:
//
//   core text      -> TreeArtifact        (include-aware content key)
//   deltas text    -> DeltaArtifact       (per-module fingerprints)
//   (core, deltas) -> ProductLineArtifact (one clone of the core)
//   (core, active-module fingerprints in application order)
//                  -> ComposedArtifact    (derived tree + printed DTS)
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
#pragma once

#include "api/llhsc.hpp"
#include "server/artifact_store.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

/// A limited `deadline` (the daemon's request deadline) clamps every unit's
/// solver budget but not the verdict keys.
[[nodiscard]] api::SessionResult run_session_check(
    const api::SessionRequest& request, ArtifactStore& store,
    const support::Deadline& deadline = {});

}  // namespace llhsc::server
