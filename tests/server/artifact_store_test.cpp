#include "server/artifact_store.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace llhsc::server {
namespace {

constexpr const char* kCore = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
};
)";

TEST(ArtifactStore, TreeParseIsContentAddressed) {
  ArtifactStore store;
  dts::SourceManager sm1;
  bool hit = true;
  auto a = store.tree(kCore, "core.dts", sm1, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(a->tree, nullptr);
  EXPECT_FALSE(a->parse_errors);

  dts::SourceManager sm2;
  auto b = store.tree(kCore, "core.dts", sm2, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get()) << "same content must share the parse";
  EXPECT_EQ(store.stats().tree_parses, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(ArtifactStore, DifferentContentDifferentArtifact) {
  ArtifactStore store;
  dts::SourceManager sm;
  auto a = store.tree(kCore, "core.dts", sm);
  std::string edited(kCore);
  edited += "\n";
  auto b = store.tree(edited, "core.dts", sm);
  EXPECT_NE(a->key, b->key);
  EXPECT_EQ(store.stats().tree_parses, 2u);
}

TEST(ArtifactStore, IncludeEditInvalidatesTree) {
  const std::string source = "/dts-v1/;\n/include/ \"frag.dtsi\"\n";
  ArtifactStore store;
  dts::SourceManager sm1;
  sm1.register_file("frag.dtsi", "/ { a = <1>; };\n");
  bool hit = true;
  auto a = store.tree(source, "top.dts", sm1, &hit);
  EXPECT_FALSE(hit);
  ASSERT_FALSE(a->parse_errors) << a->diagnostics_text;
  ASSERT_EQ(a->includes.size(), 1u);
  EXPECT_EQ(a->includes[0].first, "frag.dtsi");

  // Same main source, same include content: hit.
  dts::SourceManager sm2;
  sm2.register_file("frag.dtsi", "/ { a = <1>; };\n");
  auto b = store.tree(source, "top.dts", sm2, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());

  // Same main source, *edited* include: the dependency edge must force a
  // re-parse even though the main text's hash is unchanged.
  dts::SourceManager sm3;
  sm3.register_file("frag.dtsi", "/ { a = <2>; };\n");
  auto c = store.tree(source, "top.dts", sm3, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(b.get(), c.get());
  EXPECT_EQ(store.stats().tree_parses, 2u);
  // The effective key must change with the include content too — derived
  // artifacts (product lines, composed trees, check verdicts) key off it,
  // and a stable key would hand them stale cached results over the fresh
  // parse.
  EXPECT_EQ(a->key, b->key);
  EXPECT_NE(b->key, c->key) << "key must fold the include content hashes";
}

TEST(ArtifactStore, ParseErrorsAreCachedToo) {
  ArtifactStore store;
  dts::SourceManager sm;
  auto a = store.tree("/dts-v1/;\n/ { unterminated", "bad.dts", sm);
  EXPECT_TRUE(a->parse_errors);
  EXPECT_FALSE(a->diagnostics_text.empty());
  bool hit = false;
  auto b = store.tree("/dts-v1/;\n/ { unterminated", "bad.dts", sm, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get()) << "a failing input must not re-parse each ask";
}

TEST(ArtifactStore, ConcurrentIdenticalRequestsShareOneBuild) {
  ArtifactStore store;
  constexpr int kThreads = 8;
  std::atomic<int> misses{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const TreeArtifact>> results(kThreads);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      dts::SourceManager sm;
      bool hit = false;
      results[i] = store.tree(kCore, "core.dts", sm, &hit);
      if (!hit) misses.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.stats().tree_parses, 1u)
      << "concurrent identical requests must share one parse";
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[0].get(), results[i].get());
  }
}

TEST(ArtifactStore, UnitCheckGetOrBuild) {
  ArtifactStore store;
  int builds = 0;
  auto build = [&]() {
    ++builds;
    CheckArtifact art;
    art.key = 99;
    art.solver_checks = 7;
    return art;
  };
  bool hit = true;
  auto a = store.unit_check(99, build, &hit);
  EXPECT_FALSE(hit);
  auto b = store.unit_check(99, build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(b->solver_checks, 7u);
  EXPECT_EQ(store.stats().unit_checks, 1u);
}

TEST(ArtifactStore, TimedOutVerdictIsNeverReused) {
  ArtifactStore store;
  int builds = 0;
  auto build = [&]() {
    ++builds;
    CheckArtifact art;
    art.key = 5;
    checkers::Finding timeout;
    timeout.kind = checkers::FindingKind::kSolverTimeout;
    art.findings.push_back(timeout);
    return art;
  };
  bool hit = true;
  auto a = store.unit_check(5, build, &hit);
  EXPECT_FALSE(hit);
  ASSERT_EQ(a->findings.size(), 1u);
  (void)store.unit_check(5, build, &hit);
  EXPECT_FALSE(hit) << "a timed-out verdict depends on timing, not its key";
  EXPECT_EQ(builds, 2);
}

TEST(ArtifactStore, FifoEvictionBoundsEachClass) {
  ArtifactStore store(/*capacity=*/2);
  auto build = [](uint64_t key) {
    return [key]() {
      CheckArtifact art;
      art.key = key;
      return art;
    };
  };
  (void)store.unit_check(1, build(1));
  (void)store.unit_check(2, build(2));
  (void)store.unit_check(3, build(3));  // evicts key 1
  EXPECT_EQ(store.stats().evictions, 1u);
  bool hit = true;
  (void)store.unit_check(1, build(1), &hit);  // rebuilt, not an error
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().unit_checks, 4u);
}

TEST(ArtifactStore, DeltaModuleFingerprintsAreStableAndDistinct) {
  ArtifactStore store;
  const std::string deltas =
      "delta da when fa {\n"
      "    modifies memory@40000000 { status = \"okay\"; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"disabled\"; }\n"
      "}\n";
  auto a = store.deltas(deltas, "t.deltas");
  ASSERT_FALSE(a->parse_errors) << a->diagnostics_text;
  ASSERT_EQ(a->modules.size(), 2u);
  ASSERT_EQ(a->module_keys.size(), 2u);
  EXPECT_NE(a->module_keys[0], a->module_keys[1]);
  EXPECT_EQ(a->module_keys[0], delta_module_fingerprint(a->modules[0]));
}

TEST(ArtifactStore, FnvCombineOrderSensitive) {
  const uint64_t h = 0xcbf29ce484222325ull;
  EXPECT_NE(fnv_combine(fnv_combine(h, 1), 2),
            fnv_combine(fnv_combine(h, 2), 1));
  EXPECT_NE(fnv_combine(h, 0), h);
}

}  // namespace
}  // namespace llhsc::server
