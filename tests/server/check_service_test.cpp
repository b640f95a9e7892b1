#include "server/check_service.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/obs.hpp"

namespace llhsc::server {
namespace {

// A layout whose verdict is decided entirely inside the included .dtsi: the
// clean variant keeps the uart clear of the memory bank, the clashing
// variant parks it on the bank's base address (the paper's §I-A clash).
constexpr const char* kCleanSoc = R"(/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";

constexpr const char* kClashingSoc = R"(/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart@40000000 { compatible = "ns16550a"; reg = <0x40000000 0x1000>; };
};
)";

api::CheckRequest include_request(const char* soc_content) {
  api::CheckRequest r;
  r.path = "top.dts";
  r.source = "/dts-v1/;\n/include/ \"soc.dtsi\"\n";
  r.includes.emplace_back("soc.dtsi", soc_content);
  return r;
}

TEST(CheckService, IncludeEditChangesCachedVerdict) {
  ArtifactStore store;
  api::CheckResult clean = run_check(include_request(kCleanSoc), store);
  EXPECT_EQ(clean.exit_code, 0) << clean.error_text;
  EXPECT_EQ(clean.errors, 0u);

  // Same main source, same options — only the .dtsi changed. The stale
  // verdict must NOT come back from the unit-check cache.
  api::CheckResult clash = run_check(include_request(kClashingSoc), store);
  EXPECT_FALSE(clash.trace.tree_cache_hit);
  EXPECT_FALSE(clash.trace.check_cache_hit)
      << "verdict key must change when an include changes";
  EXPECT_EQ(clash.exit_code, 1) << clash.output;
  EXPECT_GT(clash.errors, 0u) << "the uart/memory clash must surface";

  // And the cached-store answer matches the storeless one byte-for-byte.
  api::CheckResult oneshot = api::run_check(include_request(kClashingSoc));
  EXPECT_EQ(clash.output, oneshot.output);
  EXPECT_EQ(clash.error_text, oneshot.error_text);
  EXPECT_EQ(clash.exit_code, oneshot.exit_code);

  // Restoring the original include restores the clean verdict as a pure
  // cache hit: both keys stay live in the store.
  api::CheckResult restored = run_check(include_request(kCleanSoc), store);
  EXPECT_TRUE(restored.trace.check_cache_hit);
  EXPECT_EQ(restored.exit_code, 0);
  EXPECT_EQ(restored.output, clean.output);
}

size_t count_spans(const std::vector<obs::Event>& events,
                   const std::string& name) {
  size_t n = 0;
  for (const obs::Event& e : events) {
    if (e.kind == obs::Event::Kind::kSpan && e.name == name) ++n;
  }
  return n;
}

// A verdict build makes one analysis context: the store builds its keyed
// device graph from the battery's context instead of a second one.
TEST(CheckService, VerdictBuildMakesOneAnalysisContext) {
  ArtifactStore store;
  obs::TraceSink sink;
  {
    obs::ScopedSink guard(&sink);
    const api::CheckResult result =
        run_check(include_request(kClashingSoc), store);
    EXPECT_FALSE(result.trace.check_cache_hit);
  }
  const std::vector<obs::Event> events = sink.take();
  EXPECT_EQ(count_spans(events, "context.build"), 1u);
  EXPECT_EQ(count_spans(events, "graph.build"), 1u);
  EXPECT_EQ(store.stats().graph_builds, 1u);
}

}  // namespace
}  // namespace llhsc::server
