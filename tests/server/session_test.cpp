#include "server/session.hpp"

#include <gtest/gtest.h>

#include "checkers/report.hpp"
#include "core/running_example.hpp"
#include "obs/obs.hpp"
#include "server/runner.hpp"

namespace llhsc::server {
namespace {

constexpr const char* kCore = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";

constexpr const char* kDeltas =
    "delta da when fa {\n"
    "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
    "}\n"
    "delta db when fb {\n"
    "    modifies memory@40000000 { status = \"okay\"; }\n"
    "}\n";

api::SessionRequest base_request() {
  api::SessionRequest r;
  r.core_source = kCore;
  r.core_name = "core.dts";
  r.deltas_source = kDeltas;
  r.deltas_name = "t.deltas";
  r.products.push_back({"pa", {"fa"}});
  r.products.push_back({"pb", {"fb"}});
  return r;
}

TEST(Session, ColdRunChecksEveryProduct) {
  ArtifactStore store;
  api::SessionResult out = run_session_check(base_request(), store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_EQ(out.units[0].name, "pa");
  EXPECT_EQ(out.units[1].name, "pb");
  EXPECT_FALSE(out.units[0].composed_cache_hit);
  EXPECT_FALSE(out.units[1].composed_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 1u);
  EXPECT_EQ(out.cost.delta_parses, 1u);
  EXPECT_EQ(out.cost.product_line_builds, 1u);
  EXPECT_EQ(out.cost.derives, 2u);
  EXPECT_EQ(out.cost.unit_checks, 2u);
}

TEST(Session, WarmRunIsAllHits) {
  ArtifactStore store;
  (void)run_session_check(base_request(), store);
  api::SessionResult out = run_session_check(base_request(), store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_TRUE(out.units[0].composed_cache_hit);
  EXPECT_TRUE(out.units[0].check_cache_hit);
  EXPECT_TRUE(out.units[1].composed_cache_hit);
  EXPECT_TRUE(out.units[1].check_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 0u);
  EXPECT_EQ(out.cost.delta_parses, 0u);
  EXPECT_EQ(out.cost.derives, 0u);
  EXPECT_EQ(out.cost.unit_checks, 0u);
}

/// Eight VMs alternating Fig. 1b / Fig. 1c, plus the platform; allocation is
/// off because the VMs reuse the two exclusive CPUs.
api::SessionRequest eight_vm_request() {
  api::SessionRequest r = core::running_example_request();
  for (int i = 0; i < 8; ++i) {
    r.products.push_back({"vm" + std::to_string(i + 1),
                          i % 2 == 0 ? core::fig1b_features()
                                     : core::fig1c_features()});
  }
  r.check_allocation = false;
  return r;
}

/// Primes a store with `before`, then runs `after`, which edits one delta
/// module: exactly one composed tree re-derives and is re-checked, and the
/// rest is served from the store.
api::SessionResult run_one_delta_edit(const api::SessionRequest& before,
                                      const api::SessionRequest& after) {
  ArtifactStore store;
  EXPECT_EQ(run_session_check(before, store).exit_code, 0);
  api::SessionResult out = run_session_check(after, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  EXPECT_EQ(out.cost.tree_parses, 0u) << "core text unchanged";
  EXPECT_EQ(out.cost.delta_parses, 1u);
  EXPECT_EQ(out.cost.derives, 1u) << "only one composed tree rebuilds";
  EXPECT_EQ(out.cost.unit_checks, 1u);
  EXPECT_GT(out.cost.hits, 0u);
  return out;
}

TEST(Session, EditingOneModuleRechecksOnlyItsProduct) {
  // Edit db's body: pb must re-derive and re-check, pa must stay cached.
  api::SessionRequest edited = base_request();
  edited.deltas_source =
      "delta da when fa {\n"
      "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"disabled\"; }\n"
      "}\n";
  api::SessionResult out = run_one_delta_edit(base_request(), edited);
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_TRUE(out.units[0].composed_cache_hit) << "pa does not activate db";
  EXPECT_TRUE(out.units[0].check_cache_hit);
  EXPECT_FALSE(out.units[1].composed_cache_hit);
  EXPECT_FALSE(out.units[1].check_cache_hit);

  // Edit d1 under eight VMs: only the Fig. 1b configuration activates it,
  // and its four VMs share one derive and one check. The platform unit is
  // off, since it composes d1 too. The veth schema allows additional
  // properties, so every product stays finding-free.
  api::SessionRequest eight_vms = eight_vm_request();
  eight_vms.check_platform = false;
  api::SessionRequest d1_edited = eight_vms;
  const std::string needle = "id = <0>;";  // d1's veth0 body
  const size_t pos = d1_edited.deltas_source.find(needle);
  ASSERT_NE(pos, std::string::npos);
  d1_edited.deltas_source.insert(pos + needle.size(),
                                 "\n            edit-revision = <1>;");
  (void)run_one_delta_edit(eight_vms, d1_edited);
}

TEST(Session, IncludeEditRebuildsEveryUnit) {
  // The same nodes as kCore, but loaded through a .dtsi — the core's main
  // text never changes in this test, only the include's content.
  constexpr const char* kSocV1 = R"(/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.core_source = "/dts-v1/;\n/include/ \"soc.dtsi\"\n";
  request.includes.emplace_back("soc.dtsi", kSocV1);
  api::SessionResult cold = run_session_check(request, store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  EXPECT_EQ(cold.cost.derives, 2u);

  api::SessionResult warm = run_session_check(request, store);
  EXPECT_EQ(warm.cost.tree_parses, 0u);
  EXPECT_EQ(warm.cost.derives, 0u) << "unchanged include must stay cached";

  // Edit only the .dtsi: the core's effective key changes, so the product
  // line, every composed tree, and every verdict must rebuild — a cached
  // unit check here would be a verdict over the old include content.
  api::SessionRequest edited = request;
  edited.includes[0].second = R"(/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x2000000>; };
    uart0: uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";
  api::SessionResult out = run_session_check(edited, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 2u);
  EXPECT_FALSE(out.units[0].composed_cache_hit);
  EXPECT_FALSE(out.units[0].check_cache_hit);
  EXPECT_FALSE(out.units[1].composed_cache_hit);
  EXPECT_FALSE(out.units[1].check_cache_hit);
  EXPECT_EQ(out.cost.tree_parses, 1u);
  EXPECT_EQ(out.cost.delta_parses, 0u) << "delta text unchanged";
  EXPECT_EQ(out.cost.product_line_builds, 1u) << "wraps the new core tree";
  EXPECT_EQ(out.cost.derives, 2u);
  EXPECT_EQ(out.cost.unit_checks, 2u);
}

TEST(Session, GraphArtifactsRederiveOnlyForEditedUnits) {
  ArtifactStore store;
  api::SessionResult cold = run_session_check(base_request(), store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  EXPECT_EQ(cold.cost.graph_builds, 2u) << "one device graph per product";
  EXPECT_EQ(cold.cost.cross_checks, 1u);

  api::SessionResult warm = run_session_check(base_request(), store);
  EXPECT_EQ(warm.cost.graph_builds, 0u) << "unchanged trees, cached graphs";
  EXPECT_EQ(warm.cost.cross_checks, 0u);

  // One-delta edit: only pb's composed tree changes, so only pb's graph
  // artifact re-derives; the cross-unit verdict keys on both graphs and
  // must re-run exactly once.
  api::SessionRequest edited = base_request();
  edited.deltas_source =
      "delta da when fa {\n"
      "    modifies uart@20000000 { clock-frequency = <1000000>; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"disabled\"; }\n"
      "}\n";
  api::SessionResult out = run_session_check(edited, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  EXPECT_EQ(out.cost.derives, 1u);
  EXPECT_EQ(out.cost.graph_builds, 1u) << "only pb's graph rebuilds";
  EXPECT_EQ(out.cost.cross_checks, 1u);
}

// Each unit build makes one analysis context: the store builds the unit's
// keyed device graph from the battery's context instead of a second one.
TEST(Session, UnitBuildMakesOneAnalysisContext) {
  ArtifactStore store;
  obs::TraceSink sink;
  {
    obs::ScopedSink guard(&sink);
    const api::SessionResult out = run_session_check(base_request(), store);
    EXPECT_EQ(out.exit_code, 0) << out.error_text;
    EXPECT_EQ(out.cost.graph_builds, 2u);
  }
  size_t contexts = 0;
  for (const obs::Event& e : sink.take()) {
    if (e.kind == obs::Event::Kind::kSpan && e.name == "context.build") {
      ++contexts;
    }
  }
  EXPECT_EQ(contexts, 2u) << "one per product unit";
}

TEST(Session, GraphDisabledBuildsNoGraphArtifacts) {
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.graph = false;
  api::SessionResult out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  EXPECT_EQ(out.cost.graph_builds, 0u);
  EXPECT_EQ(out.cost.cross_checks, 0u);
}

TEST(Session, CrossUnitConflictSurfacesAsGraphUnit) {
  // Both products keep the same enabled uart claiming the same clock
  // provider — the cross-unit exclusive-provider rule must report, as a
  // synthetic "*graph*" unit after the per-product units.
  constexpr const char* kClockedCore = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    clk: clock-controller@10000000 {
        reg = <0x10000000 0x1000>;
        #clock-cells = <0>;
    };
    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x20000000 0x1000>;
        clocks = <&clk>;
    };
};
)";
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.core_source = kClockedCore;
  request.lint = false;
  request.syntax = false;
  request.semantics = false;
  api::SessionResult out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 1);
  ASSERT_GE(out.units.size(), 3u);
  const api::SessionUnitResult& cross = out.units.back();
  EXPECT_EQ(cross.name, "*graph*");
  EXPECT_EQ(cross.errors, 1u);
  EXPECT_NE(cross.report.find("graph-exclusive-provider"), std::string::npos)
      << cross.report;
  EXPECT_NE(cross.report.find("'pa' and unit 'pb'"), std::string::npos)
      << cross.report;

  // The conflict verdict itself is cached: a warm rerun reports it again
  // without re-running the analysis.
  api::SessionResult warm = run_session_check(request, store);
  EXPECT_EQ(warm.exit_code, 1);
  EXPECT_EQ(warm.cost.cross_checks, 0u);
  EXPECT_EQ(warm.units.back().name, "*graph*");
  EXPECT_TRUE(warm.units.back().check_cache_hit);
}

TEST(Session, PlatformUnitIsUnionOfSelections) {
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.check_platform = true;
  api::SessionResult out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 0) << out.error_text;
  ASSERT_EQ(out.units.size(), 3u);
  EXPECT_EQ(out.units.back().name, "platform");
  // The platform activates both modules, so its composed tree is distinct
  // from both products': three derives.
  EXPECT_EQ(out.cost.derives, 3u);
}

TEST(Session, CoreParseErrorRejectsRequest) {
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.core_source = "/dts-v1/;\n/ { broken";
  api::SessionResult out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 1);
  EXPECT_FALSE(out.error_text.empty());
  EXPECT_TRUE(out.units.empty());
}

TEST(Session, AllocationRequiresModel) {
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.check_allocation = true;
  api::SessionResult out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_NE(out.error_text.find("feature model"), std::string::npos);
}

constexpr const char* kLiftedModel =
    "model T {\n"
    "  fa;\n"
    "  fb;\n"
    "}\n";

api::SessionRequest lifted_request() {
  api::SessionRequest r = base_request();
  r.products.clear();
  r.model_source = kLiftedModel;
  r.model_name = "t.fm";
  r.check_lifted = true;
  return r;
}

TEST(SessionLifted, RequiresModel) {
  ArtifactStore store;
  api::SessionRequest request = base_request();
  request.check_lifted = true;
  api::SessionResult out = run_session_check(request, store);
  EXPECT_EQ(out.exit_code, 2);
  EXPECT_NE(out.error_text.find("feature model"), std::string::npos);
}

TEST(SessionLifted, FamilyVerdictIsOneCachedUnit) {
  ArtifactStore store;
  api::SessionResult cold = run_session_check(lifted_request(), store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  ASSERT_EQ(cold.units.size(), 1u);
  EXPECT_EQ(cold.units[0].name, "*lifted*");
  EXPECT_FALSE(cold.units[0].check_cache_hit);
  EXPECT_EQ(cold.cost.lifted_checks, 1u);
  // No product is ever derived or individually checked.
  EXPECT_EQ(cold.cost.derives, 0u);
  EXPECT_EQ(cold.cost.unit_checks, 0u);

  api::SessionResult warm = run_session_check(lifted_request(), store);
  ASSERT_EQ(warm.units.size(), 1u);
  EXPECT_TRUE(warm.units[0].check_cache_hit);
  EXPECT_EQ(warm.cost.lifted_checks, 0u);
}

TEST(SessionLifted, EditingAnyDeltaInvalidatesTheFamilyVerdict) {
  ArtifactStore store;
  (void)run_session_check(lifted_request(), store);
  api::SessionRequest edited = lifted_request();
  edited.deltas_source =
      "delta da when fa {\n"
      "    modifies uart@20000000 { clock-frequency = <2000000>; }\n"
      "}\n"
      "delta db when fb {\n"
      "    modifies memory@40000000 { status = \"okay\"; }\n"
      "}\n";
  api::SessionResult out = run_session_check(edited, store);
  ASSERT_EQ(out.units.size(), 1u);
  EXPECT_FALSE(out.units[0].check_cache_hit);
  EXPECT_EQ(out.cost.lifted_checks, 1u);
}

size_t count_of(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// Two unordered deltas writing one property: the product unit's derive
// and the *lifted* unit each warn once, on success, and a warm run (every
// artifact a store hit) replays the same bytes.
TEST(SessionLifted, UnorderedConflictWarnsColdAndWarm) {
  api::SessionRequest request = lifted_request();
  request.core_source =
      "/dts-v1/;\n"
      "/ { #address-cells = <1>; #size-cells = <1>;\n"
      "  dev@1000 { reg = <0x1000 0x100>; };\n"
      "};\n";
  request.deltas_source =
      "delta first {\n"
      "  modifies /dev@1000 { status = \"okay\"; }\n"
      "}\n"
      "delta second {\n"
      "  modifies /dev@1000 { status = \"disabled\"; }\n"
      "}\n";
  request.products.push_back({"p", {}});
  ArtifactStore store;
  api::SessionResult cold = run_session_check(request, store);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_text;
  ASSERT_EQ(cold.units.size(), 2u);
  EXPECT_EQ(cold.units[0].name, "*lifted*");
  EXPECT_EQ(count_of(cold.error_text, "[delta-order]"), 2u) << cold.error_text;

  api::SessionResult warm = run_session_check(request, store);
  EXPECT_EQ(warm.exit_code, 0);
  ASSERT_EQ(warm.units.size(), 2u);
  EXPECT_TRUE(warm.units[0].check_cache_hit);
  EXPECT_TRUE(warm.units[1].composed_cache_hit);
  EXPECT_TRUE(warm.units[1].check_cache_hit);
  EXPECT_EQ(warm.cost.derives, 0u);
  EXPECT_EQ(warm.cost.lifted_checks, 0u);
  EXPECT_EQ(warm.error_text, cold.error_text);
}

// -- The product-line driver: `llhsc demo`, the examples and the benches
// run the daemon's session with a call-local store and `jobs` threads. --

/// The running example as daemon wire params (the fields
/// session_request_from reads).
Json session_params(const api::SessionRequest& r) {
  Json includes = Json::object();
  for (const auto& [name, content] : r.includes) {
    includes.set(name, Json::string(content));
  }
  Json products = Json::array();
  for (const api::SessionProduct& p : r.products) {
    Json features = Json::array();
    for (const std::string& f : p.features) features.push(Json::string(f));
    Json product = Json::object();
    product.set("name", Json::string(p.name));
    product.set("features", std::move(features));
    products.push(std::move(product));
  }
  Json exclusive = Json::array();
  for (const std::string& f : r.exclusive) exclusive.push(Json::string(f));
  Json params = Json::object();
  params.set("core_source", Json::string(r.core_source));
  params.set("core_name", Json::string(r.core_name));
  params.set("deltas_source", Json::string(r.deltas_source));
  params.set("deltas_name", Json::string(r.deltas_name));
  params.set("model_source", Json::string(r.model_source));
  params.set("model_name", Json::string(r.model_name));
  params.set("includes", std::move(includes));
  params.set("products", std::move(products));
  params.set("check_platform", Json::boolean(r.check_platform));
  params.set("check_allocation", Json::boolean(r.check_allocation));
  params.set("exclusive", std::move(exclusive));
  return params;
}

api::SessionRequest paper_request(const char* deltas) {
  api::SessionRequest r =
      core::running_example_request(core::running_example_core_dts(), deltas);
  r.products = {{"vm1", core::fig1b_features()},
                {"vm2", core::fig1c_features()}};
  return r;
}

TEST(Session, DaemonAndDemoShapedRunsAgreeOnTheMissingD4Example) {
  const api::SessionRequest request =
      paper_request(core::running_example_deltas_without_d4());

  ArtifactStore daemon_store;  // a daemon's: outlives the request
  const SessionRun daemon = run_session_check(
      session_request_from(session_params(request)), daemon_store,
      /*deadline=*/{}, /*jobs=*/1);
  ArtifactStore call_store;  // `llhsc demo`'s: local to the call
  const SessionRun demo =
      run_session_check(request, call_store, /*deadline=*/{}, /*jobs=*/4);

  EXPECT_EQ(daemon.exit_code, 1);
  EXPECT_EQ(demo.exit_code, daemon.exit_code);
  EXPECT_EQ(demo.error_text, daemon.error_text);
  ASSERT_EQ(daemon.units.size(), 4u);  // *, vm1, vm2, platform
  ASSERT_EQ(demo.units.size(), daemon.units.size());
  ASSERT_EQ(demo.checked.size(), daemon.checked.size());
  bool blamed_d3 = false;
  for (size_t i = 0; i < daemon.units.size(); ++i) {
    EXPECT_EQ(demo.units[i].name, daemon.units[i].name);
    EXPECT_EQ(demo.units[i].report, daemon.units[i].report);
    const checkers::Findings& a = daemon.checked[i].findings;
    const checkers::Findings& b = demo.checked[i].findings;
    ASSERT_EQ(a.size(), b.size()) << daemon.units[i].name;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].delta, b[k].delta) << daemon.units[i].name;
      blamed_d3 = blamed_d3 || a[k].delta == "d3";
    }
  }
  EXPECT_TRUE(blamed_d3) << checkers::render(daemon.findings());
}

TEST(Session, EightVmWorkloadDerivesAndChecksEachDistinctTreeOnce) {
  std::string flat_serial;
  for (unsigned jobs : {1u, 4u}) {
    ArtifactStore store;
    const SessionRun run =
        run_session_check(eight_vm_request(), store, /*deadline=*/{}, jobs);
    EXPECT_EQ(run.exit_code, 0) << run.error_text;
    ASSERT_EQ(run.units.size(), 9u) << "jobs=" << jobs;
    // vm1 = vm3 = ..., vm2 = vm4 = ..., and the platform.
    EXPECT_EQ(run.cost.derives, 3u) << "jobs=" << jobs;
    EXPECT_EQ(run.cost.unit_checks, 3u) << "jobs=" << jobs;
    const std::string flat = checkers::render(run.findings()) +
                             checkers::report_json(run.findings());
    if (jobs == 1) {
      flat_serial = flat;
    } else {
      EXPECT_EQ(flat, flat_serial);
    }
  }
}

TEST(Session, EventsAttributeDeriveAllocationAndBatteryStages) {
  auto spans = [](const SessionRun& run, const std::string& name) {
    std::vector<const obs::Event*> out;
    for (const obs::Event& e : run.events) {
      if (e.kind == obs::Event::Kind::kSpan && e.name == name) {
        out.push_back(&e);
      }
    }
    return out;
  };

  // Eight VMs, three distinct trees: one derive span per composed miss,
  // none for the six hits.
  ArtifactStore store;
  const SessionRun eight = run_session_check(eight_vm_request(), store);
  size_t misses = 0;
  for (const api::SessionUnitResult& u : eight.units) {
    misses += u.composed_cache_hit ? 0 : 1;
  }
  EXPECT_EQ(misses, 3u);
  EXPECT_EQ(spans(eight, "stage.derive").size(), misses);
  // A warm rerun derives nothing and records no derive span.
  const SessionRun warm = run_session_check(eight_vm_request(), store);
  EXPECT_EQ(warm.cost.derives, 0u);
  EXPECT_TRUE(spans(warm, "stage.derive").empty());

  // The paper's two VMs: allocation under unit "*", every battery stage
  // under its unit's name.
  ArtifactStore paper_store;
  const SessionRun paper = run_session_check(
      paper_request(core::running_example_deltas()), paper_store);
  EXPECT_EQ(paper.exit_code, 0) << paper.error_text;
  const auto allocation = spans(paper, "stage.allocation");
  ASSERT_EQ(allocation.size(), 1u);
  EXPECT_EQ(allocation[0]->unit, "*");
  for (const char* stage : {"stage.derive", "stage.lint", "stage.graph",
                            "stage.syntactic", "stage.semantic"}) {
    std::vector<std::string> units;
    for (const obs::Event* e : spans(paper, stage)) units.push_back(e->unit);
    EXPECT_EQ(units, (std::vector<std::string>{"vm1", "vm2", "platform"}))
        << stage;
  }
  const auto cross = spans(paper, "stage.graph-cross");
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0]->unit, "*");
}

}  // namespace
}  // namespace llhsc::server
