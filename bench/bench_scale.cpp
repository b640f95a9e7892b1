// PR10 — horizontal-scaling load driver for llhscd. Unlike the other bench
// binaries this is not a google-benchmark microbench: it drives a *live*
// daemon over its Unix socket with N concurrent clients issuing
// solver-backed check requests, and reports aggregate throughput as one
// JSON line on stdout. tools/bench_scale.sh runs it against a 1-worker and
// a multi-worker daemon in interleaved rounds and gates the pooled-best
// speedup (BENCH_pr10.json).
//
// Every request body carries a unique bench-rev property, so neither the
// daemon's in-memory artifact store nor a worker's check cache can
// short-circuit the work: each request parses, plans and proves its
// address map from scratch — the CPU-bound workload horizontal scaling is
// supposed to parallelise.
//
// Usage: bench_scale --socket <path> [--clients N] [--requests M]
//                    [--regions K] [--tag T]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/net.hpp"
#include "support/json.hpp"

using llhsc::support::Json;

namespace {

// A clean K-region board: every region is disjoint, so the semantic stage
// has to discharge the full pairwise no-overlap obligation set through the
// solver (the expensive path), and the verdict stays exit 0.
std::string board_source(int regions, int revision) {
  std::string s = "/dts-v1/;\n/ {\n";
  s += "    #address-cells = <1>;\n    #size-cells = <1>;\n";
  s += "    bench-rev = <" + std::to_string(revision) + ">;\n";
  s += "    memory@40000000 { device_type = \"memory\"; "
       "reg = <0x40000000 0x1000000>; };\n";
  for (int i = 0; i < regions; ++i) {
    const unsigned base = 0x10000000u + 0x100000u * static_cast<unsigned>(i);
    char node[160];
    std::snprintf(node, sizeof(node),
                  "    uart@%x { compatible = \"ns16550a\"; "
                  "reg = <0x%x 0x1000>; };\n",
                  base, base);
    s += node;
  }
  s += "};\n";
  return s;
}

std::string check_line(uint64_t id, int regions, int revision) {
  Json params = Json::object();
  params.set("path", Json::string("bench-scale.dts"));
  params.set("source", Json::string(board_source(regions, revision)));
  params.set("format", Json::string("json"));
  Json req = Json::object();
  req.set("id", Json::unsigned_integer(id));
  req.set("method", Json::string("check"));
  req.set("params", std::move(params));
  return req.dump() + "\n";
}

bool send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool recv_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

struct ClientResult {
  int served = 0;
  int failures = 0;
};

void run_client(const std::string& socket_path, int client, int requests,
                int regions, int tag, ClientResult& result) {
  std::string error;
  const int fd = llhsc::server::net::connect_unix(socket_path, &error);
  if (fd < 0) {
    result.failures = requests;
    return;
  }
  std::string buffer;
  std::string line;
  for (int i = 0; i < requests; ++i) {
    const uint64_t id = static_cast<uint64_t>(client) * 100000u +
                        static_cast<uint64_t>(i) + 1;
    const int revision = tag * 1000000 + client * 10000 + i;
    if (!send_all(fd, check_line(id, regions, revision)) ||
        !recv_line(fd, buffer, line)) {
      result.failures += requests - i;
      break;
    }
    const std::optional<Json> reply = Json::parse(line);
    if (!reply || !reply->has("ok") || !reply->at("ok").as_bool(false)) {
      ++result.failures;
      continue;
    }
    ++result.served;
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int clients = 4;
  int requests = 8;
  int regions = 6;
  int tag = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--clients") clients = std::atoi(next());
    else if (arg == "--requests") requests = std::atoi(next());
    else if (arg == "--regions") regions = std::atoi(next());
    else if (arg == "--tag") tag = std::atoi(next());
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty() || clients < 1 || requests < 1) {
    std::fprintf(stderr,
                 "usage: bench_scale --socket <path> [--clients N] "
                 "[--requests M] [--regions K] [--tag T]\n");
    return 2;
  }

  std::vector<ClientResult> results(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(run_client, socket_path, c, requests, regions, tag,
                         std::ref(results[static_cast<size_t>(c)]));
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  int served = 0;
  int failures = 0;
  for (const ClientResult& r : results) {
    served += r.served;
    failures += r.failures;
  }
  const double rps = wall_ms > 0 ? served / (wall_ms / 1e3) : 0.0;
  std::printf(
      "{\"clients\": %d, \"requests_per_client\": %d, \"regions\": %d, "
      "\"served\": %d, \"failures\": %d, \"wall_ms\": %.3f, "
      "\"rps\": %.3f}\n",
      clients, requests, regions, served, failures, wall_ms, rps);
  return failures == 0 ? 0 : 1;
}
