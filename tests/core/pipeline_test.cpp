// End-to-end pipeline tests — the Fig. 2 workflow (E10) plus the two
// fault-injection scenarios run through the whole stack (E4, E5).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "checkers/report.hpp"
#include "core/running_example.hpp"
#include "obs/obs.hpp"
#include "fdt/fdt.hpp"
#include "schema/builtin_schemas.hpp"

namespace llhsc::core {
namespace {

class PipelineTest : public ::testing::TestWithParam<smt::Backend> {
 protected:
  void SetUp() override {
    model = feature::running_example_model();
    schemas = schema::builtin_schemas();
    pl = running_example_product_line(diags);
    ASSERT_NE(pl, nullptr) << diags.render();
  }

  Pipeline make_pipeline(const delta::ProductLine& line,
                         PipelineOptions opts = {}) {
    opts.battery.backend = GetParam();
    return Pipeline(model, exclusive_cpus(model), line, schemas, opts);
  }

  std::vector<VmSpec> paper_vms() {
    return {{"vm1", fig1b_features()}, {"vm2", fig1c_features()}};
  }

  feature::FeatureModel model;
  schema::SchemaSet schemas;
  support::DiagnosticEngine diags;
  std::unique_ptr<delta::ProductLine> pl;
};

// E10 — the paper's two-VM configuration goes through cleanly and produces
// every artifact the cloud service shows: two VM DTSs, the platform DTS,
// Listing 3 and Listing 6 C files, plus bootable-format DTBs.
TEST_P(PipelineTest, PaperConfigurationSucceeds) {
  Pipeline pipeline = make_pipeline(*pl);
  PipelineResult result = pipeline.run(paper_vms());
  EXPECT_TRUE(result.ok) << checkers::render(result.findings)
                         << result.diagnostics.render();
  ASSERT_EQ(result.vms.size(), 2u);
  EXPECT_FALSE(result.vms[0].dts_text.empty());
  EXPECT_FALSE(result.vms[1].dts_text.empty());
  ASSERT_NE(result.platform_tree, nullptr);

  // VM1 has veth0 but not veth1; VM2 vice versa; the platform has both.
  EXPECT_NE(result.vms[0].tree->find("/vEthernet/veth0@80000000"), nullptr);
  EXPECT_EQ(result.vms[0].tree->find("/vEthernet/veth1@70000000"), nullptr);
  EXPECT_NE(result.vms[1].tree->find("/vEthernet/veth1@70000000"), nullptr);
  EXPECT_NE(result.platform_tree->find("/vEthernet/veth0@80000000"), nullptr);
  EXPECT_NE(result.platform_tree->find("/vEthernet/veth1@70000000"), nullptr);

  // Listing 3 content.
  EXPECT_NE(result.platform_config_c.find(".cpu_num = 2"), std::string::npos);
  EXPECT_EQ(result.platform_config.regions.size(), 2u);
  // Listing 6 content: two VMs in the vmlist.
  EXPECT_NE(result.vm_config_c.find(".vmlist_size = 2"), std::string::npos);
  EXPECT_NE(result.vm_config_c.find("VM_IMAGE(vm1"), std::string::npos);

  // DTBs verify.
  support::DiagnosticEngine de;
  EXPECT_TRUE(fdt::verify(result.vms[0].dtb, de)) << de.render();
  EXPECT_TRUE(fdt::verify(result.platform_dtb, de)) << de.render();

  // QEMU commands (§V) reference each VM's own artifacts.
  EXPECT_NE(result.vms[0].qemu_command.find("-dtb vm1.dtb"),
            std::string::npos);
  EXPECT_NE(result.vms[0].qemu_command.find("-smp 1"), std::string::npos);

  // Per-VM configs: one CPU each, disjoint affinities.
  EXPECT_EQ(result.vms[0].config.cpu_num, 1u);
  EXPECT_EQ(result.vms[1].config.cpu_num, 1u);
  EXPECT_EQ(result.vms[0].config.cpu_affinity &
                result.vms[1].config.cpu_affinity,
            0u);
  EXPECT_EQ(result.vms[0].config.cpu_affinity |
                result.vms[1].config.cpu_affinity,
            0b11u);
}

// E4 end-to-end — the §I-A UART/memory clash: syntactic checks stay silent,
// the semantic checker reports the overlap.
TEST_P(PipelineTest, UartClashCaughtSemanticallyOnly) {
  support::DiagnosticEngine de;
  auto bad_pl = running_example_product_line(de, /*with_uart_clash=*/true);
  ASSERT_NE(bad_pl, nullptr) << de.render();
  Pipeline pipeline = make_pipeline(*bad_pl);
  // Configure without virtualization so the core layout is used as-is.
  std::vector<VmSpec> vms{{"vm", {"CustomSBC", "memory", "cpus", "cpu@0",
                                  "uarts", "uart@20000000", "uart@60000000"}}};
  // uart@60000000 is not a feature of the model; use the standard names and
  // rely on the clash being in the core DTS instead.
  vms[0].features = {"CustomSBC", "memory",        "cpus",
                     "cpu@0",     "uarts",         "uart@20000000",
                     "uart@30000000"};
  PipelineResult result = pipeline.run(vms);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(checkers::contains(result.findings,
                                 checkers::FindingKind::kAddressOverlap))
      << checkers::render(result.findings);
  // No syntactic finding fires for this purely semantic bug.
  for (const checkers::Finding& f : result.findings) {
    EXPECT_TRUE(f.kind == checkers::FindingKind::kAddressOverlap ||
                f.severity == checkers::FindingSeverity::kWarning)
        << f.render();
  }
}

// E5 end-to-end — omitting d4 (the 64->32-bit rewrite) produces four
// truncated banks and a collision at 0x0, traced back to delta d3.
TEST_P(PipelineTest, OmittedD4CaughtWithDeltaBlame) {
  support::DiagnosticEngine de;
  auto broken_pl = running_example_product_line_without_d4(de);
  ASSERT_NE(broken_pl, nullptr) << de.render();
  Pipeline pipeline = make_pipeline(*broken_pl);
  PipelineResult result = pipeline.run(paper_vms());
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(checkers::contains(result.findings,
                                 checkers::FindingKind::kAddressOverlap))
      << checkers::render(result.findings);
  bool blamed = false;
  for (const checkers::Finding& f : result.findings) {
    // Bank-vs-bank collisions of the truncated memory node.
    if (f.kind == checkers::FindingKind::kAddressOverlap &&
        f.subject.rfind("/memory", 0) == 0 &&
        f.other_subject.rfind("/memory", 0) == 0) {
      blamed = true;
      EXPECT_EQ(f.delta, "d3")
          << "the cell-width change that re-interpreted the banks is d3's";
    }
  }
  EXPECT_TRUE(blamed) << checkers::render(result.findings);
}

TEST_P(PipelineTest, InvalidAllocationStopsBeforeGeneration) {
  Pipeline pipeline = make_pipeline(*pl, [] {
    PipelineOptions o;
    o.fail_fast = true;
    return o;
  }());
  // Same CPU for both VMs.
  PipelineResult result =
      pipeline.run({{"vm1", fig1b_features()}, {"vm2", fig1b_features()}});
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(checkers::contains(result.findings,
                                 checkers::FindingKind::kExclusivityViolation));
  EXPECT_TRUE(result.vms.empty()) << "fail-fast must stop before deriving";
}

TEST_P(PipelineTest, SingleVmWithoutVirtualDevices) {
  Pipeline pipeline = make_pipeline(*pl);
  PipelineResult result = pipeline.run(
      {{"solo",
        {"CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart@20000000"}}});
  EXPECT_TRUE(result.ok) << checkers::render(result.findings)
                         << result.diagnostics.render();
  ASSERT_EQ(result.vms.size(), 1u);
  // 64-bit layout retained (d3 never fired).
  EXPECT_EQ(result.vms[0].tree->root().address_cells_or_default(), 2u);
  EXPECT_EQ(result.vms[0].tree->find("/vEthernet"), nullptr);
  EXPECT_EQ(result.vms[0].config.cpu_affinity, 0b01u);
}

TEST_P(PipelineTest, ChecksCanBeDisabled) {
  support::DiagnosticEngine de;
  auto bad_pl = running_example_product_line(de, /*with_uart_clash=*/true);
  PipelineOptions opts;
  opts.battery.semantics = false;
  Pipeline pipeline = make_pipeline(*bad_pl, opts);
  PipelineResult result = pipeline.run(
      {{"vm",
        {"CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart@20000000",
         "uart@30000000"}}});
  EXPECT_TRUE(result.ok)
      << "with the semantic stage off, the clash goes unnoticed: "
      << checkers::render(result.findings);
}

TEST_P(PipelineTest, GeneratedDtsRoundTripsThroughParser) {
  Pipeline pipeline = make_pipeline(*pl);
  PipelineResult result = pipeline.run(paper_vms());
  ASSERT_TRUE(result.ok);
  for (const GeneratedVm& vm : result.vms) {
    support::DiagnosticEngine de;
    auto reparsed = dts::parse_dts(vm.dts_text, vm.name + ".dts", de);
    EXPECT_NE(reparsed, nullptr);
    EXPECT_FALSE(de.has_errors()) << de.render();
    EXPECT_EQ(reparsed->node_count(), vm.tree->node_count());
  }
}

// The tentpole determinism guarantee: a parallel run is byte-identical to a
// serial one in every user-visible output — findings in all three formats,
// diagnostics, DTS text, DTB blobs and generated C. Uses the broken product
// line so the comparison covers a finding-rich report, not just empty ones.
TEST_P(PipelineTest, ParallelRunIsByteIdenticalToSerial) {
  support::DiagnosticEngine de;
  auto broken_pl = running_example_product_line_without_d4(de);
  ASSERT_NE(broken_pl, nullptr) << de.render();
  auto run_with = [&](unsigned jobs) {
    PipelineOptions opts;
    opts.jobs = jobs;
    Pipeline pipeline = make_pipeline(*broken_pl, opts);
    return pipeline.run(paper_vms());
  };
  PipelineResult serial = run_with(1);
  PipelineResult parallel = run_with(4);

  EXPECT_EQ(serial.ok, parallel.ok);
  EXPECT_EQ(checkers::render(serial.findings),
            checkers::render(parallel.findings));
  EXPECT_EQ(checkers::report_json(serial.findings),
            checkers::report_json(parallel.findings));
  EXPECT_EQ(checkers::to_sarif(serial.findings, "pipeline"),
            checkers::to_sarif(parallel.findings, "pipeline"));
  EXPECT_EQ(serial.diagnostics.render(), parallel.diagnostics.render());

  ASSERT_EQ(serial.vms.size(), parallel.vms.size());
  for (size_t i = 0; i < serial.vms.size(); ++i) {
    EXPECT_EQ(serial.vms[i].name, parallel.vms[i].name);
    EXPECT_EQ(serial.vms[i].dts_text, parallel.vms[i].dts_text);
    EXPECT_EQ(serial.vms[i].dtb, parallel.vms[i].dtb);
    EXPECT_EQ(serial.vms[i].qemu_command, parallel.vms[i].qemu_command);
  }
  EXPECT_EQ(serial.platform_dts_text, parallel.platform_dts_text);
  EXPECT_EQ(serial.platform_dtb, parallel.platform_dtb);
  EXPECT_EQ(serial.platform_config_c, parallel.platform_config_c);
  EXPECT_EQ(serial.vm_config_c, parallel.vm_config_c);

  // The trace's structure (unit/stage sequence and finding counts) is also
  // deterministic; only the timings differ.
  ASSERT_EQ(serial.trace.stages.size(), parallel.trace.stages.size());
  for (size_t i = 0; i < serial.trace.stages.size(); ++i) {
    EXPECT_EQ(serial.trace.stages[i].unit, parallel.trace.stages[i].unit);
    EXPECT_EQ(serial.trace.stages[i].stage, parallel.trace.stages[i].stage);
    EXPECT_EQ(serial.trace.stages[i].findings,
              parallel.trace.stages[i].findings);
  }
  EXPECT_EQ(parallel.trace.jobs, 4u);
}

TEST_P(PipelineTest, CleanParallelRunMatchesSerial) {
  auto run_with = [&](unsigned jobs) {
    PipelineOptions opts;
    opts.jobs = jobs;
    Pipeline pipeline = make_pipeline(*pl, opts);
    return pipeline.run(paper_vms());
  };
  PipelineResult serial = run_with(1);
  PipelineResult parallel = run_with(4);
  EXPECT_TRUE(parallel.ok) << checkers::render(parallel.findings);
  EXPECT_EQ(checkers::render(serial.findings),
            checkers::render(parallel.findings));
  EXPECT_EQ(serial.vm_config_c, parallel.vm_config_c);
  EXPECT_EQ(serial.platform_dts_text, parallel.platform_dts_text);
}

TEST_P(PipelineTest, TraceRecordsEveryStage) {
  Pipeline pipeline = make_pipeline(*pl);
  PipelineResult result = pipeline.run(paper_vms());
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.trace.complete);
  EXPECT_GT(result.trace.total_ms, 0.0);
  auto has = [&](const std::string& unit, const std::string& stage) {
    for (const StageTrace& s : result.trace.stages) {
      if (s.unit == unit && s.stage == stage) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("*", "allocation"));
  for (const char* unit : {"vm1", "vm2", "platform"}) {
    for (const char* stage :
         {"derive", "lint", "syntactic", "semantic", "emit"}) {
      EXPECT_TRUE(has(unit, stage)) << unit << "/" << stage;
    }
  }
  // The solver-backed stages did real work. Both route through the query
  // planner: the syntactic stage's constraints reach the solver, while on
  // this clean example the semantic stage prunes every candidate — so its
  // evidence of work is the issued+pruned total, not solver_checks.
  for (const StageTrace& s : result.trace.stages) {
    if (s.stage == "syntactic") {
      EXPECT_GT(s.solver_checks, 0u) << s.unit << "/" << s.stage;
    }
    if (s.stage == "semantic") {
      EXPECT_GT(s.queries_issued + s.queries_pruned, 0u)
          << s.unit << "/" << s.stage;
    }
  }
  // Both renderings carry the structure.
  std::string json = result.trace.to_json();
  EXPECT_NE(json.find("\"jobs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"complete\": true"), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"semantic\""), std::string::npos);
  std::string table = result.trace.render_table();
  EXPECT_NE(table.find("semantic"), std::string::npos);
  EXPECT_NE(table.find("platform"), std::string::npos);
}

// Satellite of the fail-fast fix: a later-stage failure must not suppress
// the findings already collected, and the partial trace survives. jobs=1
// makes the abort point deterministic (vm1 fails, vm2/platform are skipped).
TEST_P(PipelineTest, FailFastKeepsPartialFindingsAndTrace) {
  support::DiagnosticEngine de;
  auto broken_pl = running_example_product_line_without_d4(de);
  ASSERT_NE(broken_pl, nullptr) << de.render();
  PipelineOptions opts;
  opts.fail_fast = true;
  opts.jobs = 1;
  Pipeline pipeline = make_pipeline(*broken_pl, opts);
  PipelineResult result = pipeline.run(paper_vms());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.trace.complete);
  // vm1's semantic findings (the truncated-bank overlaps) are retained.
  EXPECT_TRUE(checkers::contains(result.findings,
                                 checkers::FindingKind::kAddressOverlap))
      << checkers::render(result.findings);
  bool vm1_semantic = false, vm2_any = false;
  for (const StageTrace& s : result.trace.stages) {
    vm1_semantic = vm1_semantic || (s.unit == "vm1" && s.stage == "semantic");
    vm2_any = vm2_any || s.unit == "vm2";
  }
  EXPECT_TRUE(vm1_semantic) << "the failing stage itself is traced";
  EXPECT_FALSE(vm2_any) << "serial fail-fast stops before vm2";
  EXPECT_NE(result.trace.to_json().find("\"complete\": false"),
            std::string::npos);
}

// The planner's headline guarantee: routing the semantic stage through
// sweep-line pruning and batched guarded queries changes no user-visible
// byte. Uses the finding-rich broken product line so witnesses, delta
// blame and provenance are all exercised.
TEST_P(PipelineTest, PlannedFindingsByteIdenticalToExhaustive) {
  support::DiagnosticEngine de;
  auto broken_pl = running_example_product_line_without_d4(de);
  ASSERT_NE(broken_pl, nullptr) << de.render();
  auto run_with = [&](bool plan) {
    PipelineOptions opts;
    opts.battery.semantic.plan = plan;
    Pipeline pipeline = make_pipeline(*broken_pl, opts);
    return pipeline.run(paper_vms());
  };
  PipelineResult planned = run_with(true);
  PipelineResult exhaustive = run_with(false);

  EXPECT_EQ(planned.ok, exhaustive.ok);
  EXPECT_EQ(checkers::render(planned.findings),
            checkers::render(exhaustive.findings));
  EXPECT_EQ(checkers::report_json(planned.findings),
            checkers::report_json(exhaustive.findings));
  EXPECT_EQ(checkers::to_sarif(planned.findings, "pipeline"),
            checkers::to_sarif(exhaustive.findings, "pipeline"));
  ASSERT_EQ(planned.findings.size(), exhaustive.findings.size());
  for (size_t i = 0; i < planned.findings.size(); ++i) {
    const checkers::Finding& a = planned.findings[i];
    const checkers::Finding& b = exhaustive.findings[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.subject, b.subject);
    EXPECT_EQ(a.other_subject, b.other_subject);
    EXPECT_EQ(a.delta, b.delta) << "delta blame must survive planning";
    EXPECT_EQ(a.base_a, b.base_a);
    EXPECT_EQ(a.witness, b.witness) << "witness addresses must match";
    EXPECT_EQ(a.message, b.message);
  }
  EXPECT_LT(planned.trace.total_solver_checks(),
            exhaustive.trace.total_solver_checks())
      << "planning must reduce solver work on this workload";
  EXPECT_GT(planned.trace.total_queries_pruned(), 0u);
}

// Acceptance criterion: on the eight-VM workload the planner cuts solver
// check() calls by at least 10x relative to the exhaustive path, with a
// byte-identical report. Mirrors bench_pipeline's BM_PipelineParallel
// workload (allocation off: the eight VMs intentionally reuse CPUs).
TEST_P(PipelineTest, EightVmWorkloadCutsSolverChecksTenfold) {
  std::vector<VmSpec> vms;
  for (int i = 0; i < 8; ++i) {
    vms.push_back({"vm" + std::to_string(i),
                   i % 2 == 0 ? fig1b_features() : fig1c_features()});
  }
  auto run_with = [&](bool plan) {
    PipelineOptions opts;
    opts.check_allocation = false;
    opts.battery.semantic.plan = plan;
    Pipeline pipeline = make_pipeline(*pl, opts);
    return pipeline.run(vms);
  };
  PipelineResult planned = run_with(true);
  PipelineResult exhaustive = run_with(false);
  EXPECT_EQ(checkers::render(planned.findings),
            checkers::render(exhaustive.findings));
  // The ratio is the semantic stage's: --no-plan leaves the syntactic
  // stage's queries unchanged, so they are excluded from it.
  auto semantic_checks = [](const PipelineResult& r) {
    uint64_t n = 0;
    for (const StageTrace& s : r.trace.stages) {
      if (s.stage == "semantic") n += s.solver_checks;
    }
    return n;
  };
  const uint64_t planned_checks = semantic_checks(planned);
  const uint64_t exhaustive_checks = semantic_checks(exhaustive);
  EXPECT_GT(exhaustive_checks, 0u);
  EXPECT_LE(planned_checks * 10, exhaustive_checks)
      << "planned=" << planned_checks << " exhaustive=" << exhaustive_checks;
}

// Acceptance criterion: a second run against the same --cache-dir replays
// every verdict from the persistent cache — zero queries reach the solver —
// and the report is byte-identical, witnesses included.
TEST_P(PipelineTest, WarmCacheSecondRunIssuesZeroQueries) {
  support::DiagnosticEngine de;
  auto broken_pl = running_example_product_line_without_d4(de);
  ASSERT_NE(broken_pl, nullptr) << de.render();
  const std::string cache_dir = ::testing::TempDir() +
                                "/llhsc-pipeline-warm-cache-" +
                                std::string(smt::to_string(GetParam()));
  std::filesystem::remove_all(cache_dir);
  auto run_once = [&] {
    PipelineOptions opts;
    opts.battery.semantic.cache_dir = cache_dir;
    Pipeline pipeline = make_pipeline(*broken_pl, opts);
    return pipeline.run(paper_vms());
  };
  PipelineResult cold = run_once();
  PipelineResult warm = run_once();

  EXPECT_GT(cold.trace.total_queries_issued(), 0u)
      << "cold run must actually consult the solver";
  EXPECT_EQ(warm.trace.total_queries_issued(), 0u)
      << "warm run must be served entirely from the cache";
  for (const StageTrace& s : warm.trace.stages) {
    if (s.stage == "semantic") {
      EXPECT_EQ(s.solver_checks, 0u)
          << s.unit << ": warm semantic stages never touch the solver";
    }
  }
  EXPECT_GT(warm.trace.total_cache_hits(), 0u);
  EXPECT_EQ(checkers::render(cold.findings), checkers::render(warm.findings));
  EXPECT_EQ(checkers::report_json(cold.findings),
            checkers::report_json(warm.findings));
}

// Learned-clause retention acceptance: on the eight-VM workload the report
// must be byte-identical with retention on (default), with retention
// disabled (the pre-retention solver, via LLHSC_NO_CLAUSE_RETENTION), and
// under the portfolio backend — while retention never *increases* the CDCL
// conflict work the builtin solver reports per check.
TEST(PipelineRetentionTest, EightVmReportStableAndConflictsDoNotGrow) {
  feature::FeatureModel model = feature::running_example_model();
  schema::SchemaSet schemas = schema::builtin_schemas();
  support::DiagnosticEngine diags;
  auto pl = running_example_product_line(diags);
  ASSERT_NE(pl, nullptr) << diags.render();
  std::vector<VmSpec> vms;
  for (int i = 0; i < 8; ++i) {
    vms.push_back({"vm" + std::to_string(i),
                   i % 2 == 0 ? fig1b_features() : fig1c_features()});
  }
  auto run_with = [&](smt::Backend backend) {
    PipelineOptions opts;
    opts.battery.backend = backend;
    opts.check_allocation = false;
    Pipeline pipeline(model, exclusive_cpus(model), *pl, schemas, opts);
    return pipeline.run(vms);
  };
  auto conflicts_of = [](const PipelineResult& r) {
    int64_t n = 0;
    for (const obs::Event& e : r.events) {
      if (e.kind == obs::Event::Kind::kCounter &&
          e.name == "solver.conflicts") {
        n += e.delta;
      }
    }
    return n;
  };

  PipelineResult retained = run_with(smt::Backend::kBuiltin);
  ASSERT_EQ(::setenv("LLHSC_NO_CLAUSE_RETENTION", "1", 1), 0);
  PipelineResult dropped = run_with(smt::Backend::kBuiltin);
  ::unsetenv("LLHSC_NO_CLAUSE_RETENTION");
  PipelineResult portfolio = run_with(smt::Backend::kPortfolio);

  // Verdict transparency: retention and racing are pure optimisations.
  EXPECT_EQ(checkers::render(retained.findings),
            checkers::render(dropped.findings));
  EXPECT_EQ(checkers::report_json(retained.findings),
            checkers::report_json(dropped.findings));
  EXPECT_EQ(checkers::render(retained.findings),
            checkers::render(portfolio.findings));
  EXPECT_EQ(retained.ok, dropped.ok);
  EXPECT_EQ(retained.ok, portfolio.ok);

  // Keeping guard-independent learned clauses can only prune later queries
  // on the shared per-unit solver instance, never add work.
  EXPECT_LE(conflicts_of(retained), conflicts_of(dropped));
}

INSTANTIATE_TEST_SUITE_P(Backends, PipelineTest,
                         ::testing::ValuesIn(smt::all_backends()),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

}  // namespace
}  // namespace llhsc::core
