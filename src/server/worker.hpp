// The forked worker process body behind the llhscd supervisor. Each worker
// owns a private ArtifactStore and thread pool and serves request envelopes
// on its socketpair channel until EOF (the supervisor's drain signal), then
// finishes in-flight work and exits 0.
//
// Channel protocol (line-delimited JSON, one envelope per line):
//
//   down: {"seq": N, "line": "<exact client request line>"}
//       | {"seq": N, "ctl": "stats"}
//   up:   {"seq": N, "code": "<error code or ''>",
//          "line": "<exact response line, newline stripped>"}
//       | {"seq": N, "stats": {checks, sessions, check_counters, store}}
//
// The response embedded in "line" is produced by the same runner.hpp code
// the in-process mode uses (same field order, same schema_version stamp),
// and the supervisor relays it to the client verbatim — byte-identity with
// the one-shot CLI needs no cross-process coordination. "code" duplicates
// the error code (empty on success) so the supervisor can count rejections
// without re-parsing the response.
#pragma once

#include "server/server.hpp"

namespace llhsc::server {

/// Runs the worker loop on `channel_fd`. Returns the process exit code.
/// `index` names the worker in log lines ("llhscd[w<index>]: ...").
int worker_main(int channel_fd, const api::ServerOptions& options,
                unsigned index);

}  // namespace llhsc::server
