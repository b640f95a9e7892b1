#include "server/runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

namespace llhsc::server {
namespace {

constexpr const char* kBoard = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";

constexpr const char* kDeltas =
    "delta da when fa {\n"
    "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
    "}\n";

Json check_params() {
  Json params = Json::object();
  params.set("path", Json::string("board.dts"));
  params.set("source", Json::string(kBoard));
  return params;
}

Json session_params() {
  Json product = Json::object();
  product.set("name", Json::string("pa"));
  product.set("features", Json::array().push(Json::string("fa")));
  Json params = Json::object();
  params.set("core_source", Json::string(kBoard));
  params.set("core_name", Json::string("core.dts"));
  params.set("deltas_source", Json::string(kDeltas));
  params.set("deltas_name", Json::string("t.deltas"));
  params.set("products", Json::array().push(std::move(product)));
  return params;
}

// A request deadline clamps the solver budget to what is left of it, which
// differs on every request; the verdict key must not, or the daemon store
// never hits under --deadline-ms. Each test sends its second request a few
// milliseconds further into the same 60 s deadline, as a queued request
// would be.
TEST(RunnerDeadline, RepeatedCheckHitsTheVerdictCache) {
  ArtifactStore store;
  CheckCounters counters;
  const support::Deadline deadline = support::Deadline::after_ms(60'000);
  const Json cold = execute_request("check", Json::integer(1), check_params(),
                                    deadline, store, counters);
  ASSERT_TRUE(cold.at("ok").as_bool()) << cold.dump();
  EXPECT_FALSE(cold.at("result").at("trace").at("check_cache_hit").as_bool());

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Json warm = execute_request("check", Json::integer(2), check_params(),
                                    deadline, store, counters);
  ASSERT_TRUE(warm.at("ok").as_bool()) << warm.dump();
  EXPECT_TRUE(warm.at("result").at("trace").at("check_cache_hit").as_bool());
  EXPECT_EQ(cold.at("result").at("stderr").dump(),
            warm.at("result").at("stderr").dump());
}

TEST(RunnerDeadline, RepeatedSessionRechecksNoUnit) {
  ArtifactStore store;
  CheckCounters counters;
  const support::Deadline deadline = support::Deadline::after_ms(60'000);
  const Json cold = execute_request("session", Json::integer(1),
                                    session_params(), deadline, store,
                                    counters);
  ASSERT_TRUE(cold.at("ok").as_bool()) << cold.dump();
  EXPECT_EQ(cold.at("result").at("cost").at("unit_checks").as_uint(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Json warm = execute_request("session", Json::integer(2),
                                    session_params(), deadline, store,
                                    counters);
  ASSERT_TRUE(warm.at("ok").as_bool()) << warm.dump();
  EXPECT_EQ(warm.at("result").at("cost").at("unit_checks").as_uint(), 0u);
}

// The CLI's --socket/--tcp client encodes with check_request_json and the
// daemon decodes with check_request_from: every field survives the wire.
TEST(RunnerCodec, CheckRequestRoundTripsEveryField) {
  api::CheckRequest r;
  r.path = "boards/board.dts";
  r.source = kBoard;
  r.base_directory = "/abs/boards";
  r.includes = {{"a.dtsi", "/ { a; };\n"}, {"b.dtsi", "/ { b; };\n"}};
  r.format = "sarif";
  r.lint = false;
  r.crossref = false;
  r.graph = false;
  r.syntax = false;
  r.semantics = false;
  r.quiet = true;
  r.stats = true;
  r.backend = "z3";
  r.schemas_text = "$id: x\n";
  r.schemas_path = "schemas.yaml";
  r.disable_rule = "phandle-unresolved";
  r.rule_severity = "provider-orphan=error";
  r.solver_timeout_ms = 1234;
  r.plan = false;
  r.cache_dir = "/abs/qc";
  r.baseline_text = "{\"findings\": []}";

  const auto wire = Json::parse(check_request_json(r).dump());
  ASSERT_TRUE(wire.has_value());
  const api::CheckRequest back = check_request_from(*wire);
  EXPECT_EQ(back.path, r.path);
  EXPECT_EQ(back.source, r.source);
  EXPECT_EQ(back.base_directory, r.base_directory);
  EXPECT_EQ(back.includes, r.includes);
  EXPECT_EQ(back.format, r.format);
  EXPECT_EQ(back.lint, r.lint);
  EXPECT_EQ(back.crossref, r.crossref);
  EXPECT_EQ(back.graph, r.graph);
  EXPECT_EQ(back.syntax, r.syntax);
  EXPECT_EQ(back.semantics, r.semantics);
  EXPECT_EQ(back.quiet, r.quiet);
  EXPECT_EQ(back.stats, r.stats);
  EXPECT_EQ(back.backend, r.backend);
  EXPECT_EQ(back.schemas_text, r.schemas_text);
  EXPECT_EQ(back.schemas_path, r.schemas_path);
  EXPECT_EQ(back.disable_rule, r.disable_rule);
  EXPECT_EQ(back.rule_severity, r.rule_severity);
  EXPECT_EQ(back.solver_timeout_ms, r.solver_timeout_ms);
  EXPECT_EQ(back.plan, r.plan);
  EXPECT_EQ(back.cache_dir, r.cache_dir);
  EXPECT_EQ(back.baseline_text, r.baseline_text);
}

// The daemon picks worker shard_key % N. Names whose bytes differ only
// above the lowest two bits would all share one of four workers under a
// bare FNV-1a hash; the key is mixed so that they spread.
TEST(RunnerShard, NamesFourApartSpreadOverFourWorkers) {
  for (const std::string method : {"check", "session"}) {
    std::set<uint64_t> workers;
    for (int i = 0; i < 16; ++i) {
      const std::string name =
          "board" + std::string(1, static_cast<char>('1' + 4 * i));
      Json params = Json::object();
      params.set("path", Json::string(name + ".dts"));
      params.set("source", Json::string(kBoard));
      params.set("core_name", Json::string(name + ".dts"));
      params.set("deltas_name", Json::string("board.deltas"));
      workers.insert(shard_key(method, params) % 4);
    }
    EXPECT_EQ(workers.size(), 4u) << method;
  }
}

// A check's artifacts are keyed by its content, a session's by identity:
// a session edit keeps its worker, and checks of one path label with
// different sources are not pinned to one worker.
TEST(RunnerShard, SessionsKeyByNameChecksByContent) {
  Json session = session_params();
  const uint64_t before = shard_key("session", session);
  session.set("deltas_source", Json::string(""));
  session.set("core_source", Json::string(""));
  EXPECT_EQ(shard_key("session", session), before);

  Json check = check_params();
  const uint64_t original = shard_key("check", check);
  check.set("source", Json::string("/dts-v1/;\n/ { };\n"));
  EXPECT_NE(shard_key("check", check), original);
}

}  // namespace
}  // namespace llhsc::server
