#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/check_service.hpp"
#include "server/runner.hpp"

namespace llhsc::server {
namespace {

constexpr const char* kDts = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
};
)";

/// Blocking line-oriented client over the daemon's Unix socket or its TCP
/// listener (loopback).
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // The server thread may still be between bind and listen: retry briefly.
    for (int i = 0; i < 200; ++i) {
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  explicit Client(uint16_t tcp_port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(tcp_port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    for (int i = 0; i < 200; ++i) {
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Half-closes the write side mid-request (the fuzz/disconnect tests).
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  bool send_raw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  bool send_line(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  std::optional<Json> recv_response() {
    char chunk[4096];
    while (buffer_.find('\n') == std::string::npos) {
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    size_t newline = buffer_.find('\n');
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return Json::parse(line);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

Json check_request(int id, const std::string& source) {
  Json params = Json::object();
  params.set("path", Json::string("test.dts"));
  params.set("source", Json::string(source));
  Json request = Json::object();
  request.set("id", Json::integer(id));
  request.set("method", Json::string("check"));
  request.set("params", std::move(params));
  return request;
}

/// One Server on a background thread, torn down via the wire protocol (or
/// request_stop as a fallback) so every test also exercises the drain path.
class ServerFixture {
 public:
  explicit ServerFixture(size_t queue_limit = 64)
      : ServerFixture([queue_limit](api::ServerOptions& options) {
          options.queue_limit = queue_limit;
        }) {}

  explicit ServerFixture(
      const std::function<void(api::ServerOptions&)>& tweak) {
    char tmpl[] = "/tmp/llhscd_test_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
    api::ServerOptions options;
    options.socket_path = dir_ + "/d.sock";
    options.jobs = 4;
    options.log = &log_;
    if (tweak) tweak(options);
    server_ = std::make_unique<Server>(std::move(options));
    thread_ = std::thread([this]() { exit_code_ = server_->run(); });
  }

  /// The bound TCP port, waiting for the listener to come up.
  [[nodiscard]] uint16_t tcp_port() const {
    for (int i = 0; i < 500; ++i) {
      const uint16_t port = server_->tcp_port();
      if (port != 0) return port;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return 0;
  }

  ~ServerFixture() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    ::unlink((dir_ + "/d.sock").c_str());
    ::rmdir(dir_.c_str());
  }

  [[nodiscard]] const std::string& socket_path() const {
    return server_->socket_path();
  }

  int shutdown_and_join() {
    Client client(socket_path());
    EXPECT_TRUE(client.connected());
    Json request = Json::object();
    request.set("id", Json::integer(0));
    request.set("method", Json::string("shutdown"));
    EXPECT_TRUE(client.send_line(request.dump()));
    auto response = client.recv_response();
    EXPECT_TRUE(response.has_value());
    thread_.join();
    return exit_code_;
  }

 private:
  std::string dir_;
  std::ostringstream log_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

TEST(Server, PingPong) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(R"({"id": 5, "method": "ping"})"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->at("id").as_int(), 5);
  EXPECT_TRUE(response->at("ok").as_bool());
  EXPECT_TRUE(response->at("result").at("pong").as_bool());
}

TEST(Server, CheckResponseMatchesRunCheckBytes) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool()) << response->dump();
  const Json& result = response->at("result");

  api::CheckRequest local;
  local.path = "test.dts";
  local.source = kDts;
  api::CheckResult expected = api::run_check(local);
  EXPECT_EQ(result.at("exit_code").as_int(), expected.exit_code);
  EXPECT_EQ(result.at("stdout").as_string(), expected.output);
  EXPECT_EQ(result.at("stderr").as_string(), expected.error_text);
}

// A broken --schemas file is reported at its own path, with lines counted
// from the start of the stream, and the in-process daemon answers with the
// one-shot CLI's bytes.
TEST(Server, BrokenSchemasDiagnosticNamesItsPath) {
  api::CheckRequest local;
  local.path = "test.dts";
  local.source = kDts;
  local.schemas_path = "boards/bad.yaml";
  local.schemas_text =
      "$id: memory\nselect:\n  nodeName: memory@*\n---\n"
      "$id: broken\nproperties:\n    reg:\n  type: cells\n";
  const api::CheckResult expected = api::run_check(local);
  EXPECT_EQ(expected.exit_code, 2);
  EXPECT_EQ(expected.error_text.rfind("boards/bad.yaml:8: error: [yaml-parse]",
                                      0),
            0u)
      << expected.error_text;
  // The schema-load error that follows carries the broken document's
  // first line.
  const std::string second_line =
      expected.error_text.substr(expected.error_text.find('\n') + 1);
  EXPECT_EQ(second_line.rfind("boards/bad.yaml:5: error: [schema-load]", 0),
            0u)
      << expected.error_text;

  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  Json request = Json::object();
  request.set("id", Json::integer(1));
  request.set("method", Json::string("check"));
  request.set("params", check_request_json(local));
  ASSERT_TRUE(client.send_line(request.dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool()) << response->dump();
  const Json& result = response->at("result");
  EXPECT_EQ(result.at("exit_code").as_int(), expected.exit_code);
  EXPECT_EQ(result.at("stdout").as_string(), expected.output);
  EXPECT_EQ(result.at("stderr").as_string(), expected.error_text);
}

TEST(Server, WarmCheckHitsArtifactCache) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  auto cold = client.recv_response();
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->at("result").at("trace").at("tree_cache_hit").as_bool());

  ASSERT_TRUE(client.send_line(check_request(2, kDts).dump()));
  auto warm = client.recv_response();
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->at("result").at("trace").at("tree_cache_hit").as_bool());
  EXPECT_TRUE(warm->at("result").at("trace").at("check_cache_hit").as_bool());
  EXPECT_EQ(warm->at("result").at("stdout").as_string(),
            cold->at("result").at("stdout").as_string());
}

TEST(Server, EightConcurrentClients) {
  ServerFixture fixture;
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  // int, not vector<bool>: each thread writes its own element, and
  // vector<bool> packs elements into shared words.
  std::vector<int> ok(kClients, 0);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i]() {
      Client client(fixture.socket_path());
      if (!client.connected()) return;
      // Half the clients share one source (exercising the in-flight build
      // latch), half get distinct sources (exercising parallel builds).
      std::string source(kDts);
      if (i % 2 == 1) {
        source += "/* client " + std::to_string(i) + " */\n";
      }
      if (!client.send_line(check_request(i, source).dump())) return;
      auto response = client.recv_response();
      ok[i] = response.has_value() && response->at("ok").as_bool(false) &&
              response->at("id").as_int(-1) == i &&
              response->at("result").at("exit_code").as_int(-1) == 0;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(ok[i]) << "client " << i;
  }
}

TEST(Server, StatsReportsCountersAndLatency) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  ASSERT_TRUE(client.recv_response().has_value());
  ASSERT_TRUE(client.send_line(R"({"id": 2, "method": "stats"})"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  const Json& result = response->at("result");
  EXPECT_EQ(result.at("checks").as_uint(), 1u);
  EXPECT_GE(result.at("requests_total").as_uint(), 2u);
  EXPECT_EQ(result.at("latency").at("count").as_uint(), 1u);
  EXPECT_GT(result.at("latency").at("p95_us").as_uint(), 0u);
  EXPECT_EQ(result.at("store").at("tree_parses").as_uint(), 1u);
}

TEST(Server, StatsCheckCountersMatchTheCheckTrace) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  // Two overlapping regions so the semantic stage genuinely reaches the
  // solver — kDts alone has no region pair and every counter stays zero.
  std::string source(kDts);
  source.insert(source.rfind("};"),
                "    mmio@40800000 { reg = <0x40800000 0x1000000>; };\n");
  ASSERT_TRUE(client.send_line(check_request(1, source).dump()));
  auto check = client.recv_response();
  ASSERT_TRUE(check.has_value());
  // Every reply is stamped with the wire schema version.
  EXPECT_EQ(check->at("schema_version").as_int(), 1);
  const Json& trace = check->at("result").at("trace");

  ASSERT_TRUE(client.send_line(R"({"id": 2, "method": "stats"})"));
  auto stats = client.recv_response();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->at("schema_version").as_int(), 1);
  // The daemon's cumulative counters are accumulated from each check's
  // trace, which is itself a reduction of the obs event stream — with one
  // check served, the stats section must equal that check's trace verbatim.
  const Json& counters = stats->at("result").at("check_counters");
  for (const char* name : {"solver_checks", "queries_issued", "queries_pruned",
                           "cache_hits", "cache_errors"}) {
    EXPECT_EQ(counters.at(name).as_uint(), trace.at(name).as_uint()) << name;
  }
  EXPECT_GT(counters.at("solver_checks").as_uint(), 0u);
}

TEST(Server, MalformedLineIsBadRequest) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("this is not json"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->at("ok").as_bool(true));
  EXPECT_EQ(response->at("error").at("code").as_string(), "bad_request");
  // The connection survives a bad line.
  ASSERT_TRUE(client.send_line(R"({"id": 9, "method": "ping"})"));
  auto pong = client.recv_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("ok").as_bool());
}

TEST(Server, UnknownMethodIsBadRequest) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(R"({"id": 1, "method": "frobnicate"})"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->at("error").at("code").as_string(), "bad_request");
}

TEST(Server, ZeroQueueLimitRejectsAsOverloaded) {
  ServerFixture fixture(/*queue_limit=*/0);
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->at("ok").as_bool(true));
  EXPECT_EQ(response->at("error").at("code").as_string(), "overloaded");
}

TEST(Server, ShutdownRequestDrainsCleanly) {
  ServerFixture fixture;
  {
    Client client(fixture.socket_path());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
    ASSERT_TRUE(client.recv_response().has_value());
  }
  EXPECT_EQ(fixture.shutdown_and_join(), 0);
}

TEST(Server, RefusesToStealALiveSocket) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());

  // A second daemon pointed at the same path must refuse to start instead
  // of unlinking the live socket out from under the first.
  api::ServerOptions options;
  options.socket_path = fixture.socket_path();
  std::ostringstream log;
  options.log = &log;
  Server second(std::move(options));
  EXPECT_EQ(second.run(), 2);
  EXPECT_NE(log.str().find("refusing to start"), std::string::npos)
      << log.str();

  // The first daemon still owns the socket and still serves.
  ASSERT_TRUE(client.send_line(R"({"id": 1, "method": "ping"})"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->at("ok").as_bool());
}

TEST(Server, SessionRequestOverTheWire) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  Json product = Json::object();
  product.set("name", Json::string("pa"));
  Json features = Json::array();
  features.push(Json::string("fa"));
  product.set("features", std::move(features));
  Json products = Json::array();
  products.push(std::move(product));
  Json params = Json::object();
  params.set("core_source", Json::string(kDts));
  params.set("core_name", Json::string("core.dts"));
  params.set("deltas_source",
             Json::string("delta da when fa {\n"
                          "    modifies memory@40000000 { status = \"okay\"; }\n"
                          "}\n"));
  params.set("deltas_name", Json::string("t.deltas"));
  params.set("products", std::move(products));
  Json request = Json::object();
  request.set("id", Json::integer(3));
  request.set("method", Json::string("session"));
  request.set("params", std::move(params));
  ASSERT_TRUE(client.send_line(request.dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool(false)) << response->dump();
  const Json& result = response->at("result");
  EXPECT_EQ(result.at("exit_code").as_int(-1), 0);
  ASSERT_EQ(result.at("units").items().size(), 1u);
  EXPECT_EQ(result.at("units").items()[0].at("name").as_string(), "pa");
  EXPECT_EQ(result.at("cost").at("derives").as_uint(), 1u);
}

TEST(Server, HelloReportsProtocolVersionAndCapabilities) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(R"({"id": 1, "method": "hello"})"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool(false));
  // hello is a new (v2) surface; v1 replies elsewhere stay stamped 1.
  EXPECT_EQ(response->at("schema_version").as_int(), 2);
  const Json& result = response->at("result");
  EXPECT_EQ(result.at("protocol_version").as_int(), kProtocolVersion);
  bool has_check = false;
  for (const Json& cap : result.at("capabilities").items()) {
    if (cap.as_string() == "check") has_check = true;
  }
  EXPECT_TRUE(has_check);
}

TEST(Server, HealthzReportsOkAndWorkerCounts) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(R"({"id": 1, "method": "healthz"})"));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool(false));
  EXPECT_EQ(response->at("schema_version").as_int(), 2);
  const Json& result = response->at("result");
  EXPECT_EQ(result.at("status").as_string(), "ok");
  EXPECT_EQ(result.at("workers").at("configured").as_uint(), 0u);
  EXPECT_EQ(result.at("workers").at("restarts").as_uint(), 0u);
  EXPECT_EQ(result.at("queue_limit").as_uint(), 64u);
}

TEST(Server, V1RepliesKeepSchemaVersionOne) {
  ServerFixture fixture;
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  // The pre-versioning surfaces — ping, check, stats, errors — must stay
  // stamped schema_version 1 (and byte-compatible) forever.
  ASSERT_TRUE(client.send_line(R"({"id": 1, "method": "ping"})"));
  auto pong = client.recv_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->at("schema_version").as_int(), 1);
  ASSERT_TRUE(client.send_line(R"({"id": 2, "method": "stats"})"));
  auto stats = client.recv_response();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->at("schema_version").as_int(), 1);
  ASSERT_TRUE(client.send_line("{bad"));
  auto error = client.recv_response();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("schema_version").as_int(), 1);
}

TEST(Server, TcpListenerServesChecksIdentically) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.tcp_listen = "127.0.0.1:0";
  });
  const uint16_t port = fixture.tcp_port();
  ASSERT_NE(port, 0);
  Client client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool(false)) << response->dump();
  EXPECT_EQ(response->at("schema_version").as_int(), 1);

  api::CheckRequest local;
  local.path = "test.dts";
  local.source = kDts;
  api::CheckResult expected = api::run_check(local);
  EXPECT_EQ(response->at("result").at("stdout").as_string(), expected.output);
  EXPECT_EQ(response->at("result").at("exit_code").as_int(),
            expected.exit_code);
}

TEST(Server, ConcurrentTcpAndUnixClients) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.tcp_listen = "127.0.0.1:0";
  });
  const uint16_t port = fixture.tcp_port();
  ASSERT_NE(port, 0);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i]() {
      // Alternate transports; both speak the identical protocol.
      Client client = i % 2 == 0 ? Client(port) : Client(fixture.socket_path());
      if (!client.connected()) return;
      std::string source(kDts);
      source += "/* client " + std::to_string(i) + " */\n";
      if (!client.send_line(check_request(i, source).dump())) return;
      auto response = client.recv_response();
      ok[i] = response.has_value() && response->at("ok").as_bool(false) &&
              response->at("id").as_int(-1) == i &&
              response->at("result").at("exit_code").as_int(-1) == 0;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(ok[i]) << "client " << i;
  }
}

/// A named pipe served as an /include/ file. A check that includes it stays
/// in flight — its parse blocked opening the pipe — until release() hands
/// it the content, so a test controls exactly when that check can finish.
class HeldInclude {
 public:
  HeldInclude() {
    char tmpl[] = "/tmp/llhscd_held_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
    path_ = dir_ + "/held.dtsi";
    ready_ = ::mkfifo(path_.c_str(), 0600) == 0;
  }
  ~HeldInclude() {
    release("");  // never leave a check (and the server's drain) blocked
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }
  HeldInclude(const HeldInclude&) = delete;
  HeldInclude& operator=(const HeldInclude&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const std::string& directory() const { return dir_; }

  /// Waits (up to 10 s) for the including check to open the pipe, then
  /// writes `content` and closes it. False when no reader ever came.
  bool release(const std::string& content) {
    if (released_ || !ready_) return released_;
    for (int attempt = 0; attempt < 10000; ++attempt) {
      // O_NONBLOCK: fails with ENXIO until the check's open is waiting.
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) {
        const bool written =
            ::write(fd, content.data(), content.size()) ==
            static_cast<ssize_t>(content.size());
        ::close(fd);
        released_ = true;
        return written;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

 private:
  std::string dir_;
  std::string path_;
  bool ready_ = false;
  bool released_ = false;
};

TEST(Server, TenantQuotaRejectsTheSecondAdmission) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.tenant_quota = 1;
    options.jobs = 2;
  });
  // Declared after the fixture, so it releases any held check before the
  // fixture drains the server.
  HeldInclude held;
  ASSERT_TRUE(held.ready());
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  // The first check includes the held pipe, so it is still in flight when
  // the loop processes the second line however fast checks run.
  Json params = Json::object();
  params.set("path", Json::string("test.dts"));
  params.set("source", Json::string("/dts-v1/;\n/ {\n"
                                    "    #address-cells = <1>;\n"
                                    "    #size-cells = <1>;\n"
                                    "    /include/ \"held.dtsi\"\n};\n"));
  params.set("base_directory", Json::string(held.directory()));
  Json first = Json::object();
  first.set("id", Json::integer(1));
  first.set("method", Json::string("check"));
  first.set("params", std::move(params));
  first.set("tenant", Json::string("t1"));
  Json second = check_request(2, kDts);
  second.set("tenant", Json::string("t1"));
  ASSERT_TRUE(client.send_line(first.dump() + "\n" + second.dump()));

  auto rejected = client.recv_response();
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->at("id").as_int(), 2);
  EXPECT_FALSE(rejected->at("ok").as_bool(true));
  EXPECT_EQ(rejected->at("error").at("code").as_string(), "quota_exceeded");

  ASSERT_TRUE(held.release("    memory@40000000 { device_type = \"memory\"; "
                           "reg = <0x40000000 0x1000000>; };\n"));
  auto admitted = client.recv_response();
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->at("id").as_int(), 1);
  EXPECT_TRUE(admitted->at("ok").as_bool(false)) << admitted->dump();
  EXPECT_EQ(admitted->at("result").at("exit_code").as_int(-1), 0)
      << admitted->dump();
  // The quota releases with the admission. The release lands just after
  // the response is enqueued (responses are never reordered after drain
  // accounting), so retry briefly.
  bool served = false;
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    Json third = check_request(100 + attempt, kDts);
    third.set("tenant", Json::string("t1"));
    ASSERT_TRUE(client.send_line(third.dump()));
    auto response = client.recv_response();
    ASSERT_TRUE(response.has_value());
    served = response->at("ok").as_bool(false);
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(served);
}

TEST(Server, OversizedLineIsTooLargeAndTheConnectionResyncs) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.max_line_bytes = 1024;
  });
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  std::string huge(4096, 'x');
  ASSERT_TRUE(client.send_line(huge));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->at("ok").as_bool(true));
  EXPECT_EQ(response->at("error").at("code").as_string(), "too_large");
  // The connection resynchronises at the newline and keeps serving.
  ASSERT_TRUE(client.send_line(R"({"id": 9, "method": "ping"})"));
  auto pong = client.recv_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("ok").as_bool());
}

// Forked-worker tests live in their own suite: the TSan CI leg filters on
// `Server\.` and must not fork (TSan cannot start threads after a
// multi-threaded fork); release/ASan ctest runs everything.
TEST(ServerWorkers, CheckBytesMatchTheInProcessPath) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.workers = 2;
    options.jobs = 1;
  });
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool(false)) << response->dump();
  EXPECT_EQ(response->at("schema_version").as_int(), 1);

  api::CheckRequest local;
  local.path = "test.dts";
  local.source = kDts;
  api::CheckResult expected = api::run_check(local);
  EXPECT_EQ(response->at("result").at("stdout").as_string(), expected.output);
  EXPECT_EQ(response->at("result").at("stderr").as_string(),
            expected.error_text);
  EXPECT_EQ(response->at("result").at("exit_code").as_int(),
            expected.exit_code);
}

TEST(ServerWorkers, StatsAggregateAcrossWorkersIsVersionTwo) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.workers = 2;
    options.jobs = 1;
  });
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(check_request(1, kDts).dump()));
  ASSERT_TRUE(client.recv_response().has_value());
  ASSERT_TRUE(client.send_line(R"({"id": 2, "method": "stats"})"));
  auto stats = client.recv_response();
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->at("ok").as_bool(false)) << stats->dump();
  // Worker-mode stats expose worker detail, so they are a v2 surface.
  EXPECT_EQ(stats->at("schema_version").as_int(), 2);
  const Json& result = stats->at("result");
  EXPECT_EQ(result.at("checks").as_uint(), 1u);
  EXPECT_EQ(result.at("workers").at("configured").as_uint(), 2u);
  EXPECT_EQ(result.at("store").at("tree_parses").as_uint(), 1u);
  // The aggregate also reports the new rejection classes.
  EXPECT_TRUE(result.at("errors").has("quota_exceeded"));
  EXPECT_TRUE(result.at("errors").has("worker_failed"));
}

TEST(ServerWorkers, SessionRequestIsShardedAndAnswered) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.workers = 2;
    options.jobs = 1;
  });
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  Json product = Json::object();
  product.set("name", Json::string("pa"));
  Json features = Json::array();
  features.push(Json::string("fa"));
  product.set("features", std::move(features));
  Json products = Json::array();
  products.push(std::move(product));
  Json params = Json::object();
  params.set("core_source", Json::string(kDts));
  params.set("core_name", Json::string("core.dts"));
  params.set("deltas_source",
             Json::string("delta da when fa {\n"
                          "    modifies memory@40000000 { status = \"okay\"; }\n"
                          "}\n"));
  params.set("deltas_name", Json::string("t.deltas"));
  params.set("products", std::move(products));
  Json request = Json::object();
  request.set("id", Json::integer(3));
  request.set("method", Json::string("session"));
  request.set("params", std::move(params));
  ASSERT_TRUE(client.send_line(request.dump()));
  auto response = client.recv_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->at("ok").as_bool(false)) << response->dump();
  EXPECT_EQ(response->at("result").at("exit_code").as_int(-1), 0);
  EXPECT_EQ(response->at("result").at("cost").at("derives").as_uint(), 1u);
}

// Sessions shard by identity (core_name + deltas_name), not by content: a
// one-module edit reaches the worker that holds the session's composed
// trees, so only the product that activates the edited module re-derives.
TEST(ServerWorkers, OneDeltaEditLandsOnTheWarmWorker) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.workers = 4;
    options.jobs = 1;
  });
  Client client(fixture.socket_path());
  ASSERT_TRUE(client.connected());
  auto session = [&](int id, const std::string& db_frequency) {
    Json products = Json::array();
    for (const char* name : {"a", "b"}) {
      Json product = Json::object();
      product.set("name", Json::string(std::string("p") + name));
      product.set("features",
                  Json::array().push(Json::string(std::string("f") + name)));
      products.push(std::move(product));
    }
    Json params = Json::object();
    params.set("core_source", Json::string(kDts));
    params.set("core_name", Json::string("core.dts"));
    params.set("deltas_source",
               Json::string("delta da when fa {\n"
                            "    modifies memory@40000000 { status = \"okay\"; }\n"
                            "}\n"
                            "delta db when fb {\n"
                            "    modifies memory@40000000 { clock-frequency = <" +
                            db_frequency + ">; }\n}\n"));
    params.set("deltas_name", Json::string("board.deltas"));
    params.set("products", std::move(products));
    Json request = Json::object();
    request.set("id", Json::integer(id));
    request.set("method", Json::string("session"));
    request.set("params", std::move(params));
    EXPECT_TRUE(client.send_line(request.dump()));
    auto response = client.recv_response();
    EXPECT_TRUE(response.has_value());
    if (!response.has_value()) return Json::object();
    EXPECT_TRUE(response->at("ok").as_bool(false)) << response->dump();
    return response->at("result");
  };
  EXPECT_EQ(session(1, "1000000").at("cost").at("derives").as_uint(), 2u);
  // The edit touches module db only: pb re-derives, pa is reused.
  EXPECT_EQ(session(2, "2000000").at("cost").at("derives").as_uint(), 1u);
}

TEST(ServerWorkers, KillDashNineIsSurvivedWithNoLostResponse) {
  ServerFixture fixture([](api::ServerOptions& options) {
    options.workers = 2;
    options.jobs = 1;
  });
  Client probe(fixture.socket_path());
  ASSERT_TRUE(probe.connected());
  ASSERT_TRUE(probe.send_line(R"({"id": 0, "method": "healthz"})"));
  auto healthz = probe.recv_response();
  ASSERT_TRUE(healthz.has_value());
  const Json& pids = healthz->at("result").at("workers").at("pids");
  ASSERT_EQ(pids.items().size(), 2u);
  const pid_t victim = static_cast<pid_t>(pids.items()[0].as_int());

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<int> accounted(kClients, 0);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i]() {
      Client client(fixture.socket_path());
      if (!client.connected()) return;
      std::string source(kDts);
      source += "/* crash client " + std::to_string(i) + " */\n";
      if (!client.send_line(check_request(i, source).dump())) return;
      auto response = client.recv_response();
      if (!response.has_value()) return;
      // Zero wrong, zero lost: the answer is either the correct verdict or
      // an explicit worker_failed error — never silence, never garbage.
      if (response->at("ok").as_bool(false)) {
        accounted[i] =
            response->at("result").at("exit_code").as_int(-1) == 0 ? 1 : 0;
      } else {
        accounted[i] = response->at("error").at("code").as_string() ==
                               "worker_failed"
                           ? 1
                           : 0;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(accounted[i], 1) << "client " << i;
  }

  // The supervisor reaps the corpse and forks a replacement.
  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    ASSERT_TRUE(probe.send_line(R"({"id": 1, "method": "healthz"})"));
    auto status = probe.recv_response();
    ASSERT_TRUE(status.has_value());
    const Json& workers = status->at("result").at("workers");
    recovered = workers.at("alive").as_uint() == 2u &&
                workers.at("restarts").as_uint() >= 1u;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
}

}  // namespace
}  // namespace llhsc::server
