// The request-execution core of llhscd, factored out of the event loop so
// the in-process mode (thread pool in the front-end process) and the forked
// worker mode (`--workers N`) run the *same* code: JSON params -> api::
// request, deadline clamping, run_check/run_session_check, api:: result ->
// JSON, and the exact response-line serialisation (field order +
// schema_version stamp). The check-request encoder the CLI's --socket/--tcp
// client sends with sits beside its decoder. Byte-identity between the two
// execution modes — and with the one-shot CLI — holds by construction
// because there is exactly one implementation of each step.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "api/llhsc.hpp"
#include "server/artifact_store.hpp"
#include "support/deadline.hpp"
#include "support/json.hpp"

namespace llhsc::server {

using support::Json;

/// Cumulative check-work counters for `stats`, accumulated from each
/// CheckResult's trace in whichever process ran the work. In worker mode
/// every worker keeps its own set and the front end sums them on demand.
struct CheckCounters {
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> sessions{0};
  std::atomic<uint64_t> solver_checks{0};
  std::atomic<uint64_t> queries_issued{0};
  std::atomic<uint64_t> queries_pruned{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_errors{0};
};

/// The `check` params of `r` — every field, so check_request_from() gives
/// `r` back.
[[nodiscard]] Json check_request_json(const api::CheckRequest& r);
[[nodiscard]] api::CheckRequest check_request_from(const Json& params);
[[nodiscard]] api::SessionRequest session_request_from(const Json& params);
[[nodiscard]] Json check_result_json(const api::CheckResult& outcome);
[[nodiscard]] Json session_result_json(const api::SessionResult& outcome);
[[nodiscard]] Json store_stats_json(const api::StoreStats& s);

/// {"id": id, "ok": true, "result": result} — unstamped.
[[nodiscard]] Json ok_response(const Json& id, Json result);
/// {"id": id, "ok": false, "error": {"code", "message"}} — unstamped.
[[nodiscard]] Json error_response(const Json& id, const std::string& code,
                                  const std::string& message);

/// One response line exactly as the daemon writes it: stamps
/// `schema_version`, compact dump, trailing newline. Takes the document by
/// value because every reply gets the stamp exactly once.
[[nodiscard]] std::string stamp_response_line(Json response,
                                              int schema_version);

/// Runs one admitted check or session request — deadline clamping of the
/// solver budget included — and returns the ok-response document. Callers
/// reject an already-expired deadline *before* calling (so they can count
/// the rejection); this function only bounds the work that runs.
[[nodiscard]] Json execute_request(const std::string& method, const Json& id,
                                   const Json& params,
                                   const support::Deadline& deadline,
                                   ArtifactStore& store,
                                   CheckCounters& counters);

/// Worker shard key: a mixed FNV-1a hash of a check's `path` + `source`, or
/// of a session's `core_name` + `deltas_name`. A check's artifacts are
/// keyed by its content, so a repeated check meets its verdict again while
/// checks of one path label with different content still spread over the
/// workers. A session's are reused across edits, so a session is keyed by
/// identity: every edit lands on the worker that holds its composed trees,
/// and a one-delta edit re-derives only the products it touches.
[[nodiscard]] uint64_t shard_key(const std::string& method,
                                 const Json& params);

}  // namespace llhsc::server
