// The api:: vocabulary is also the server layer's, so every entry point
// here forwards its request to the implementation as is.
#include "api/llhsc.hpp"

#include "server/artifact_store.hpp"
#include "server/check_service.hpp"
#include "server/server.hpp"
#include "server/session.hpp"

namespace llhsc::api {

struct CheckStore::Impl {
  explicit Impl(size_t capacity) : store(capacity) {}
  server::ArtifactStore store;
};

/// llhsc.cpp-private bridge from the pimpl to the implementation store.
struct ApiAccess {
  static server::ArtifactStore& store(CheckStore& s) {
    return s.impl_->store;
  }
};

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kFindings: return "findings";
    case ErrorCode::kUsage: return "usage";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kQuotaExceeded: return "quota_exceeded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kWorkerFailed: return "worker_failed";
  }
  return "usage";
}

ErrorCode error_code_from_wire(const std::string& name) {
  if (name == "ok") return ErrorCode::kOk;
  if (name == "findings") return ErrorCode::kFindings;
  if (name == "bad_request") return ErrorCode::kBadRequest;
  if (name == "too_large") return ErrorCode::kTooLarge;
  if (name == "overloaded") return ErrorCode::kOverloaded;
  if (name == "quota_exceeded") return ErrorCode::kQuotaExceeded;
  if (name == "shutting_down") return ErrorCode::kShuttingDown;
  if (name == "deadline_exceeded") return ErrorCode::kDeadlineExceeded;
  if (name == "worker_failed") return ErrorCode::kWorkerFailed;
  return ErrorCode::kUsage;
}

int exit_code_of(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 0;
    case ErrorCode::kFindings: return 1;
    default: return 2;
  }
}

CheckStore::CheckStore(size_t capacity)
    : impl_(std::make_unique<Impl>(capacity)) {}
CheckStore::~CheckStore() = default;
CheckStore::CheckStore(CheckStore&&) noexcept = default;
CheckStore& CheckStore::operator=(CheckStore&&) noexcept = default;

StoreStats CheckStore::stats() const { return impl_->store.stats(); }

CheckResult run_check(const CheckRequest& request) {
  // A store local to the call: the one-shot check runs the daemon's code
  // with nothing to reuse.
  server::ArtifactStore store;
  return server::run_check(request, store);
}

CheckResult run_check(const CheckRequest& request, CheckStore& store) {
  return server::run_check(request, ApiAccess::store(store));
}

SessionResult run_session(const SessionRequest& request, CheckStore& store) {
  return server::run_session_check(request, ApiAccess::store(store));
}

int run_server(const ServerOptions& options) {
  server::Server daemon(options);
  return daemon.run();
}

int protocol_version() { return server::kProtocolVersion; }

}  // namespace llhsc::api
