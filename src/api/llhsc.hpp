// The public llhsc embedding API — the one entry point tools, benches and
// external embedders program against, and the one vocabulary of a check, a
// session and a daemon configuration: the server layer takes and returns
// these structs directly (server::run_check, server::run_session_check,
// server::Server, the daemon's JSON codecs and the artifact store), so the
// CLI, the daemon and an embedder calling this header run the same code on
// the same request value. The header stays std-only: no `server/*.hpp` (or
// other internal) header is reachable from it, which CI asserts with an
// include-graph check. An input only the server has (an artifact store, a
// request deadline) is a separate parameter of the server call, never a
// field here.
//
// Stability policy: docs/api.md. In short — fields are only ever added
// (with defaults preserving old behaviour), never renamed or removed within
// a major version; LLHSC_API_VERSION_MAJOR bumps on any breaking change.
//
// Observability: install an obs::TraceSink (obs/obs.hpp) around any of
// these calls to capture the span/counter event stream; export it with
// obs::write_chrome_trace for a Perfetto-loadable profile
// (docs/observability.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

/// The API generation. Major bumps on breaking changes to this header,
/// minor on compatible additions. Compare against the composite macro:
///   #if LLHSC_API_VERSION >= 200 ... #endif
#define LLHSC_API_VERSION_MAJOR 2
#define LLHSC_API_VERSION_MINOR 0
#define LLHSC_API_VERSION \
  (LLHSC_API_VERSION_MAJOR * 100 + LLHSC_API_VERSION_MINOR)

namespace llhsc::api {

/// Structured outcome/rejection classification — the API's replacement for
/// magic exit ints and raw wire error strings. The first three mirror the
/// process exit-code contract every command shares; the rest mirror the
/// daemon's wire `error.code` values (docs/server.md).
enum class ErrorCode {
  kOk = 0,        // clean run (warnings allowed)            -> exit 0
  kFindings,      // findings, or input rejected by a checker -> exit 1
  kUsage,         // bad request / usage / I-O / setup        -> exit 2
  kBadRequest,    // wire: malformed JSON, unknown method, bad params
  kTooLarge,      // wire: request line exceeded max_line_bytes
  kOverloaded,    // wire: global admission queue full
  kQuotaExceeded,  // wire: per-tenant admission quota exhausted
  kShuttingDown,  // wire: daemon is draining
  kDeadlineExceeded,  // wire: deadline_ms elapsed before completion
  kWorkerFailed,  // wire: worker died mid-request, retry also failed
};

/// The stable wire name ("ok", "bad_request", ...) of a code.
[[nodiscard]] const char* error_code_name(ErrorCode code);
/// Parses a wire `error.code` string; unknown strings map to kUsage (the
/// conservative "treat as caller error" default).
[[nodiscard]] ErrorCode error_code_from_wire(const std::string& name);
/// The process exit code a command reporting this outcome uses: 0 for kOk,
/// 1 for kFindings, 2 for everything else (usage and daemon-side errors).
[[nodiscard]] int exit_code_of(ErrorCode code);
/// Classifies a check/session exit code (0/1/2) as an ErrorCode. Inline so
/// the server layer stamps every result's `status` without linking back to
/// the library that wraps it.
[[nodiscard]] inline ErrorCode error_code_of_exit(int exit_code) {
  if (exit_code == 0) return ErrorCode::kOk;
  if (exit_code == 1) return ErrorCode::kFindings;
  return ErrorCode::kUsage;
}

/// Mirrors the `llhsc check` option surface. The caller reads the file (the
/// daemon never touches the client's filesystem for the main source);
/// `path` only labels the report.
struct CheckRequest {
  std::string path;            // report label (the CLI's positional arg)
  std::string source;          // DTS text
  std::string base_directory;  // /include/ resolution root ("" = none)
  /// In-memory includes, shadowing base_directory (name -> content).
  std::vector<std::pair<std::string, std::string>> includes;

  std::string format = "text";  // text|json|sarif
  bool lint = true;
  bool crossref = true;
  bool graph = true;  // device-graph dataflow rules (docs/rules.md)
  bool syntax = true;
  bool semantics = true;
  bool quiet = false;
  bool stats = false;

  std::string backend = "builtin";  // builtin|z3|portfolio
  std::string schemas_text;         // "" = builtin schema set
  std::string schemas_path;         // label for schema diagnostics
  std::string disable_rule;         // raw CLI comma list
  std::string rule_severity;        // raw CLI comma list
  uint64_t solver_timeout_ms = 0;
  bool plan = true;
  std::string cache_dir;
  /// Content of a --baseline file ("" = none). Applied after the verdict —
  /// and therefore after any cache hit — so baselines never key verdicts.
  std::string baseline_text;
};

/// What the request actually cost.
struct CheckTrace {
  bool tree_cache_hit = false;
  bool check_cache_hit = false;
  uint64_t solver_checks = 0;
  uint64_t queries_issued = 0;
  uint64_t queries_pruned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_errors = 0;
  /// Findings removed by inline disable comments or the baseline.
  uint64_t suppressed = 0;
};

struct CheckResult {
  int exit_code = 0;        // 0 clean, 1 findings/rejected, 2 usage/I-O
  ErrorCode status = ErrorCode::kOk;  // exit_code, classified
  std::string output;       // exact stdout bytes of the one-shot CLI
  std::string error_text;   // exact stderr bytes of the one-shot CLI
  size_t errors = 0;
  size_t warnings = 0;
  CheckTrace trace;
};

/// Artifact-store counters: what a call reused vs actually executed (also
/// the daemon's `stats` reply).
struct StoreStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t tree_parses = 0;   // dts parses actually executed
  uint64_t delta_parses = 0;
  uint64_t model_parses = 0;
  uint64_t product_line_builds = 0;  // ProductLine objects built
  uint64_t derives = 0;       // composed-tree rebuilds actually executed
  uint64_t unit_checks = 0;   // per-unit checker runs actually executed
  uint64_t graph_builds = 0;  // device-graph IR builds actually executed
  uint64_t cross_checks = 0;  // cross-unit graph analyses actually executed
  uint64_t lifted_checks = 0;  // family-based lifted analyses actually executed
};

struct SessionProduct {
  std::string name;
  std::set<std::string> features;
};

/// Incremental product-line check request (docs/sessions.md): a core DTS,
/// a delta-module file, and the products (feature selections) to derive
/// and check, with per-unit verdicts cached across calls.
struct SessionRequest {
  std::string core_source;
  std::string core_name;  // diagnostics label
  std::string deltas_source;
  std::string deltas_name;
  std::string model_source;  // feature model; required for allocation
  std::string model_name;
  std::string base_directory;  // /include/ resolution root ("" = none)
  std::vector<std::pair<std::string, std::string>> includes;

  std::vector<SessionProduct> products;
  /// Also derive and check the platform tree (union of all selections).
  bool check_platform = false;
  /// Run the resource-allocation check over all products (needs a model).
  bool check_allocation = false;
  /// Family-based lifted analysis over the WHOLE product line in one solver
  /// conversation (needs a model; docs/lifting.md). The verdict is one
  /// "*lifted*" unit covering every configuration, cached under the key of
  /// core + every delta module + model + options, so an edit to any of them
  /// re-runs exactly one family analysis.
  bool check_lifted = false;
  /// Cap on each lifted finding's configuration-class expansion.
  uint64_t lifted_max_configs = 8;
  std::vector<std::string> exclusive;  // exclusive feature names

  std::string backend = "builtin";
  bool lint = true;
  bool graph = true;  // device-graph rules, incl. the cross-unit analysis
  bool syntax = true;
  bool semantics = true;
  std::string schemas_text;  // "" = builtin schema set
  uint64_t solver_timeout_ms = 0;
  bool plan = true;
  std::string cache_dir;
};

struct SessionUnitResult {
  std::string name;  // product name, or "platform"
  bool composed_cache_hit = false;
  bool check_cache_hit = false;
  size_t errors = 0;
  size_t warnings = 0;
  std::string report;  // rendered findings of this unit
};

struct SessionResult {
  /// 0 all units clean, 1 findings or rejected input, 2 bad request.
  int exit_code = 0;
  ErrorCode status = ErrorCode::kOk;  // exit_code, classified
  /// Parse and derive diagnostics (derive and lifted-unit warnings on
  /// success too), request errors.
  std::string error_text;
  std::vector<SessionUnitResult> units;
  /// What this request actually cost: store counters after minus before.
  /// `derives` is composed trees rebuilt, `unit_checks` checker batteries
  /// executed — the incrementality evidence.
  StoreStats cost;
};

/// llhscd daemon configuration (docs/server.md).
struct ServerOptions {
  /// Unix-domain listener path ("" = no Unix listener; at least one of
  /// socket_path / tcp_listen must be set).
  std::string socket_path;
  /// TCP listener as "host:port", ":port" or "port" (port 0 = ephemeral;
  /// "" = no TCP listener).
  std::string tcp_listen;
  /// Forked worker processes (0 = run check/session work in-process).
  unsigned workers = 0;
  /// Worker threads for check/session execution (0 = hardware concurrency);
  /// with forked workers this sizes each worker's pool.
  unsigned jobs = 0;
  /// Admitted (queued + running) requests beyond this are rejected with
  /// `overloaded`.
  size_t queue_limit = 64;
  /// Per-tenant admitted cap (0 = unlimited); the tenant is the request's
  /// optional "tenant" field.
  size_t tenant_quota = 0;
  /// Deadline applied to requests without their own deadline_ms (0 = none).
  uint64_t default_deadline_ms = 0;
  /// Per-class artifact-cache capacity (per worker with forked workers).
  size_t store_capacity = 512;
  /// Request lines longer than this are rejected with `too_large`.
  size_t max_line_bytes = 64 * 1024 * 1024;
  /// Trace/log sink; null = stderr.
  std::ostream* log = nullptr;
  /// Chrome-trace profile written at shutdown ("" = no profiling). In-process
  /// mode only: forked workers run their checks in other processes, so
  /// their spans are not exported (a warning is logged).
  std::string profile_path;
};

/// A content-addressed artifact cache shared across run_check/run_session
/// calls: parses and check verdicts are reused when sources and options are
/// unchanged. Thread-safe; one store may serve concurrent calls. The
/// implementation is private (pimpl) — embedders see only the counters.
class CheckStore {
 public:
  explicit CheckStore(size_t capacity = 512);
  ~CheckStore();
  CheckStore(CheckStore&&) noexcept;
  CheckStore& operator=(CheckStore&&) noexcept;
  CheckStore(const CheckStore&) = delete;
  CheckStore& operator=(const CheckStore&) = delete;

  [[nodiscard]] StoreStats stats() const;

 private:
  struct Impl;
  friend struct ApiAccess;  // llhsc.cpp's bridge to the implementation
  std::unique_ptr<Impl> impl_;
};

/// Runs the full check battery over one in-memory DTS. Without a store
/// every call parses and checks from scratch (the one-shot CLI path).
[[nodiscard]] CheckResult run_check(const CheckRequest& request);
[[nodiscard]] CheckResult run_check(const CheckRequest& request,
                                    CheckStore& store);

/// Incremental product-line check: derives and checks every product, with
/// per-unit verdicts cached in `store` keyed by composed-tree content.
[[nodiscard]] SessionResult run_session(const SessionRequest& request,
                                        CheckStore& store);

/// Runs the llhscd daemon loop until a signal or shutdown request; returns
/// its exit code (0 clean shutdown, 2 setup failure).
[[nodiscard]] int run_server(const ServerOptions& options);

/// The daemon wire-protocol generation this library speaks (the value a
/// `hello` request reports as protocol_version).
[[nodiscard]] int protocol_version();

}  // namespace llhsc::api
