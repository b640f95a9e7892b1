// The one `llhsc check` flow as a library call over in-memory sources,
// shared by the CLI, the llhscd daemon and api::run_check. Every caller
// funnels through run_check() with an ArtifactStore — the daemon's
// long-lived one, or a store local to a one-shot call — so for identical
// inputs the daemon's response carries the exact stdout/stderr bytes and
// exit code the one-shot CLI would produce: byte-identity by construction,
// not by parallel maintenance. Requests and results are the api:: structs
// (api/llhsc.hpp); the store and the deadline are the server-only inputs.
//
// The parse and the checker verdict are reused content-addressed across
// requests; the *formatting* always runs fresh from the cached findings, so
// cached and uncached answers are indistinguishable on the wire. (One
// documented exception: the --stats stderr line replays the counters of the
// run that produced the cached verdict.)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/llhsc.hpp"
#include "checkers/battery.hpp"
#include "dts/parser.hpp"
#include "schema/schema.hpp"
#include "server/artifact_store.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

/// Runs the full check flow, reusing parse/verdict artifacts from `store`
/// content-addressed. A limited `deadline` (the daemon's request deadline)
/// clamps the solver budget but not the verdict key.
[[nodiscard]] api::CheckResult run_check(
    const api::CheckRequest& request, ArtifactStore& store,
    const support::Deadline& deadline = {});

/// The request prologue every check and session shares.
///
/// The include environment: in-memory includes, shadowing `base_directory`
/// ("" = none).
[[nodiscard]] dts::SourceManager request_sources(
    const std::vector<std::pair<std::string, std::string>>& includes,
    const std::string& base_directory);

/// The schema set the syntactic stage binds: the empty `loaded` when
/// `syntax` is off, the process's builtin set when `schemas_text` is empty,
/// else `loaded`, parsed from `schemas_text`. A parse error appends the
/// rendered diagnostics, located at `schemas_path` ("" = "<yaml>"), to
/// `error_text` and returns null — the request's exit 2, decided before
/// (and so never out of) a cached verdict.
[[nodiscard]] const schema::SchemaSet* load_request_schemas(
    bool syntax, const std::string& schemas_text,
    const std::string& schemas_path, schema::SchemaSet& loaded,
    std::string& error_text);

/// Returns the verdict key of everything besides the tree that can change a
/// verdict: `options` and the schema text they were loaded from. Then clamps
/// `options`' solver budget to what is left of `deadline` (never below 1
/// ms); the key keeps the requested budget, so repeats still hit the store.
[[nodiscard]] uint64_t key_then_clamp(checkers::BatteryOptions& options,
                                      std::string_view schemas_text,
                                      const support::Deadline& deadline);

}  // namespace llhsc::server
