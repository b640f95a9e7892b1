#include "server/runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
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

}  // namespace
}  // namespace llhsc::server
