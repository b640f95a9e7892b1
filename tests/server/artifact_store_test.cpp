#include "server/artifact_store.hpp"

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dts/printer.hpp"

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

// The race behind the shared-build guarantee, made deterministic: a
// request's lookup finds only a stale tree (parsed against an older
// include), and before it claims a build an identical request parses and
// publishes a fresh one. The late request's include revalidation reads
// its SourceManager, whose load observer runs the racing request at exactly
// that point — after the late lookup, before its build_or_wait.
struct RacingTreeRequests {
  static constexpr const char* kTop = "/dts-v1/;\n/include/ \"frag.dtsi\"\n";

  ArtifactStore store;
  dts::SourceManager racer_sources;
  dts::SourceManager late_sources;
  std::shared_ptr<const TreeArtifact> racer;

  RacingTreeRequests(const std::string& racer_frag,
                     const std::string& late_frag) {
    dts::SourceManager old_sources;
    old_sources.register_file("frag.dtsi", "/ { a = <1>; };\n");
    store.tree(kTop, "top.dts", old_sources);
    racer_sources.register_file("frag.dtsi", racer_frag);
    late_sources.register_file("frag.dtsi", late_frag);
    // One shot: build_or_wait revalidates under its lock, where a nested
    // request would deadlock.
    late_sources.set_load_observer(
        [this](const std::string&, const std::string&) {
          if (racer == nullptr) {
            racer = store.tree(kTop, "top.dts", racer_sources);
          }
        });
  }
};

TEST(ArtifactStore, TreePublishedAfterLookupIsReused) {
  RacingTreeRequests race("/ { a = <2>; };\n", "/ { a = <2>; };\n");
  const uint64_t parses_before = race.store.stats().tree_parses;
  bool hit = false;
  auto late = race.store.tree(RacingTreeRequests::kTop, "top.dts",
                              race.late_sources, &hit);
  ASSERT_NE(race.racer, nullptr) << "the racing request never ran";
  EXPECT_EQ(race.store.stats().tree_parses - parses_before, 1u)
      << "the racing pair must share one parse";
  EXPECT_TRUE(hit);
  EXPECT_EQ(late.get(), race.racer.get());
}

TEST(ArtifactStore, StaleTreePublishedAfterLookupIsRebuilt) {
  // The racer publishes a tree over include content the late request no
  // longer has: the re-check must revalidate it and parse again.
  RacingTreeRequests race("/ { a = <2>; };\n", "/ { a = <3>; };\n");
  const uint64_t parses_before = race.store.stats().tree_parses;
  bool hit = true;
  auto late = race.store.tree(RacingTreeRequests::kTop, "top.dts",
                              race.late_sources, &hit);
  ASSERT_NE(race.racer, nullptr) << "the racing request never ran";
  EXPECT_EQ(race.store.stats().tree_parses - parses_before, 2u);
  EXPECT_FALSE(hit);
  EXPECT_NE(late.get(), race.racer.get());
  EXPECT_NE(late->key, race.racer->key);
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

TEST(ArtifactStore, ProductLinesShareTheCachedCoreAndModules) {
  ArtifactStore store;
  dts::SourceManager sm;
  auto core = store.tree(kCore, "core.dts", sm);
  ASSERT_NE(core->tree, nullptr);
  auto d1 = store.deltas(
      "delta da when fa {\n"
      "    modifies memory@40000000 { status = \"okay\"; }\n"
      "}\n",
      "t.deltas");
  auto d2 = store.deltas(
      "delta da when fa {\n"
      "    adds binding / { uart@20000000 { reg = <0x20000000 0x100>; }; }\n"
      "}\n",
      "t.deltas");
  ASSERT_FALSE(d1->parse_errors) << d1->diagnostics_text;
  ASSERT_FALSE(d2->parse_errors) << d2->diagnostics_text;

  auto pl1 = store.product_line(*core, d1);
  auto pl2 = store.product_line(*core, d2);
  ASSERT_NE(pl1->product_line, nullptr);
  ASSERT_NE(pl2->product_line, nullptr);
  EXPECT_NE(pl1->key, pl2->key);
  EXPECT_EQ(store.stats().product_line_builds, 2u);
  // Neither line copies the core or the modules: both alias the store's.
  EXPECT_EQ(&pl1->product_line->core(), core->tree.get());
  EXPECT_EQ(&pl2->product_line->core(), core->tree.get());
  EXPECT_EQ(&pl1->product_line->deltas(), &d1->modules);
  EXPECT_EQ(&pl2->product_line->deltas(), &d2->modules);

  // Derived products equal those of a line that owns private copies, and
  // deriving leaves the shared core untouched.
  const std::string core_text = dts::print_dts(*core->tree);
  for (const auto& [pl, d] : {std::pair{pl1, d1}, std::pair{pl2, d2}}) {
    const delta::ProductLine owned(core->tree->clone(), d->modules);
    for (const std::set<std::string>& features :
         {std::set<std::string>{}, std::set<std::string>{"fa"}}) {
      support::DiagnosticEngine shared_diags, owned_diags;
      auto shared = pl->product_line->derive(features, shared_diags);
      auto expected = owned.derive(features, owned_diags);
      ASSERT_NE(shared, nullptr) << shared_diags.render();
      ASSERT_NE(expected, nullptr) << owned_diags.render();
      EXPECT_EQ(dts::print_dts(*shared), dts::print_dts(*expected));
      EXPECT_EQ(shared_diags.render(), owned_diags.render());
    }
  }
  EXPECT_EQ(dts::print_dts(*core->tree), core_text);

  // The line keeps the modules alive after the store lets go of them.
  std::weak_ptr<const DeltaArtifact> weak = d1;
  d1.reset();
  EXPECT_FALSE(weak.expired()) << "the product line pins its delta artifact";
  EXPECT_EQ(pl1->product_line->deltas().size(), 1u);
}

TEST(ArtifactStore, FnvCombineOrderSensitive) {
  const uint64_t h = 0xcbf29ce484222325ull;
  EXPECT_NE(fnv_combine(fnv_combine(h, 1), 2),
            fnv_combine(fnv_combine(h, 2), 1));
  EXPECT_NE(fnv_combine(h, 0), h);
}

}  // namespace
}  // namespace llhsc::server
