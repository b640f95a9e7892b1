// llhscd — the persistent llhsc check daemon (docs/server.md). Serves
// line-delimited JSON check/session/stats requests over a Unix-domain
// socket and/or TCP; `llhsc check --socket <sock>` / `--tcp host:port` are
// the matching clients.
//
//   llhscd [--socket <path>] [--listen host:port] [--workers N] [--jobs N]
//          [--queue-limit N] [--tenant-quota N] [--store-capacity N]
//          [--deadline-ms N] [--max-line-bytes N] [--log-file <file>]
//          [--profile <file>]
//
// At least one of --socket / --listen is required. --workers N forks N
// sharded worker processes behind the event-loop front end (0, the
// default, runs checks in-process); --tenant-quota caps admitted requests
// per tenant; --profile records per-request spans plus the stage/solver
// events of every check and writes one Chrome-trace JSON document at
// shutdown (in-process mode only; docs/observability.md).
//
// Exit codes: 0 clean drain (signal or `shutdown` request), 2 usage or
// setup failure.
#include <fstream>
#include <iostream>
#include <string>

#include "api/llhsc.hpp"
#include "support/flags.hpp"

namespace {

int usage() {
  std::cerr << "usage: llhscd [--socket <path>] [--listen host:port] "
               "[--workers N] [--jobs N] [--queue-limit N] "
               "[--tenant-quota N] [--store-capacity N] [--deadline-ms N] "
               "[--max-line-bytes N] [--log-file <file>] [--profile <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using llhsc::support::FlagKind;
  using llhsc::support::FlagSpec;
  static const std::vector<FlagSpec> kFlags = {
      {"socket"},
      {"listen"},
      {"workers", FlagKind::kUint},
      {"jobs", FlagKind::kUint},
      {"queue-limit", FlagKind::kUint},
      {"tenant-quota", FlagKind::kUint},
      {"store-capacity", FlagKind::kUint},
      {"deadline-ms", FlagKind::kUint},
      {"max-line-bytes", FlagKind::kUint},
      {"log-file"},
      {"profile"},
  };
  const llhsc::support::ParsedFlags args =
      llhsc::support::parse_flags(kFlags, argc, argv, 1);
  if (!args.ok) {
    std::cerr << args.error << "\n";
    return usage();
  }
  if (!args.positional.empty()) {
    std::cerr << "unexpected argument '" << args.positional.front() << "'\n";
    return usage();
  }

  llhsc::api::ServerOptions options;
  options.socket_path = args.value("socket");
  options.tcp_listen = args.value("listen");
  options.workers = static_cast<unsigned>(args.uint_value("workers", 0));
  options.jobs = static_cast<unsigned>(args.uint_value("jobs", 0));
  options.queue_limit =
      static_cast<size_t>(args.uint_value("queue-limit", options.queue_limit));
  options.tenant_quota = static_cast<size_t>(
      args.uint_value("tenant-quota", options.tenant_quota));
  options.store_capacity = static_cast<size_t>(
      args.uint_value("store-capacity", options.store_capacity));
  options.default_deadline_ms = args.uint_value("deadline-ms", 0);
  options.max_line_bytes = static_cast<size_t>(
      args.uint_value("max-line-bytes", options.max_line_bytes));
  options.profile_path = args.value("profile");
  if (options.socket_path.empty() && options.tcp_listen.empty()) {
    return usage();
  }

  std::ofstream log_file;
  const std::string log_path = args.value("log-file");
  if (!log_path.empty()) {
    log_file.open(log_path, std::ios::app);
    if (!log_file) {
      std::cerr << "cannot open log file " << log_path << "\n";
      return 2;
    }
    options.log = &log_file;
  }

  return llhsc::api::run_server(options);
}
