// End-to-end product-line tests — the Fig. 2 workflow (E10) plus the two
// fault-injection scenarios run through the whole stack (E4, E5). Every run
// is what `llhsc demo` does: stages 1-4 as one session over a store local
// to the run (server::run_session_check), then artifact emission
// (core::emit).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>

#include "checkers/report.hpp"
#include "core/emit.hpp"
#include "core/running_example.hpp"
#include "dts/parser.hpp"
#include "fdt/fdt.hpp"
#include "obs/obs.hpp"
#include "obs/summary.hpp"
#include "server/session.hpp"

namespace llhsc::core {
namespace {

using VmSpec = api::SessionProduct;

/// The stage rows of one run, reduced from its events, with the totals and
/// renderings `llhsc demo --trace-json / --verbose` print.
struct Trace {
  std::vector<obs::StageSummary> stages;
  unsigned jobs = 1;
  double total_ms = 0.0;

  [[nodiscard]] uint64_t total_solver_checks() const {
    return obs::total(stages).solver_checks;
  }
  [[nodiscard]] uint64_t total_queries_issued() const {
    return obs::total(stages).queries_issued;
  }
  [[nodiscard]] uint64_t total_queries_pruned() const {
    return obs::total(stages).queries_pruned;
  }
  [[nodiscard]] uint64_t total_cache_hits() const {
    return obs::total(stages).cache_hits;
  }
  [[nodiscard]] std::string to_json() const {
    return obs::stages_json(stages, jobs, total_ms);
  }
  [[nodiscard]] std::string render_table() const {
    return obs::stages_table(stages, jobs, total_ms);
  }
};

/// One run: the session's verdict, stage 5's artifacts and the trace.
struct Result : Artifacts {
  bool ok = false;
  checkers::Findings findings;
  std::string error_text;  // the session's, then emission's diagnostics
  /// Session events, then emission's.
  std::vector<obs::Event> events;
  Trace trace;
};

Result run_workflow(api::SessionRequest request, std::vector<VmSpec> vms,
                    unsigned jobs = 1) {
  request.products = std::move(vms);
  const auto start = std::chrono::steady_clock::now();
  server::ArtifactStore store;
  server::SessionRun run =
      server::run_session_check(request, store, /*deadline=*/{}, jobs);
  obs::TraceSink emit_sink;
  Result result;
  {
    obs::ScopedSink sink_guard(&emit_sink);
    static_cast<Artifacts&>(result) = emit(run.checked);
  }
  result.trace.total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  result.findings = run.findings();
  result.error_text = run.error_text + result.diagnostics.render();
  result.ok = run.exit_code == 0 && !result.diagnostics.has_errors();
  result.events = std::move(run.events);
  for (obs::Event& e : emit_sink.take()) result.events.push_back(std::move(e));
  result.trace.stages = obs::reduce(result.events).stages;
  result.trace.jobs = jobs;
  return result;
}

class PipelineTest : public ::testing::TestWithParam<smt::Backend> {
 protected:
  /// The running example over `core_dts` and `deltas` on this backend.
  api::SessionRequest request(
      const char* core_dts = running_example_core_dts(),
      const char* deltas = running_example_deltas()) {
    api::SessionRequest r = running_example_request(core_dts, deltas);
    r.backend = std::string(smt::to_string(GetParam()));
    return r;
  }

  std::vector<VmSpec> paper_vms() {
    return {{"vm1", fig1b_features()}, {"vm2", fig1c_features()}};
  }
};

// E10 — the paper's two-VM configuration goes through cleanly and produces
// every artifact the cloud service shows: two VM DTSs, the platform DTS,
// Listing 3 and Listing 6 C files, plus bootable-format DTBs.
TEST_P(PipelineTest, PaperConfigurationSucceeds) {
  Result result = run_workflow(request(), paper_vms());
  EXPECT_TRUE(result.ok) << checkers::render(result.findings)
                         << result.error_text;
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
  // Configure without virtualization so the core layout is used as-is.
  std::vector<VmSpec> vms{{"vm", {"CustomSBC", "memory", "cpus", "cpu@0",
                                  "uarts", "uart@20000000", "uart@60000000"}}};
  // uart@60000000 is not a feature of the model; use the standard names and
  // rely on the clash being in the core DTS instead.
  vms[0].features = {"CustomSBC", "memory",        "cpus",
                     "cpu@0",     "uarts",         "uart@20000000",
                     "uart@30000000"};
  Result result = run_workflow(
      request(running_example_core_dts_with_uart_clash()), vms);
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
  Result result = run_workflow(
      request(running_example_core_dts(), running_example_deltas_without_d4()),
      paper_vms());
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
  // Same CPU for both VMs.
  Result result = run_workflow(
      request(), {{"vm1", fig1b_features()}, {"vm2", fig1b_features()}});
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(checkers::contains(result.findings,
                                 checkers::FindingKind::kExclusivityViolation));
}

TEST_P(PipelineTest, SingleVmWithoutVirtualDevices) {
  Result result = run_workflow(
      request(),
      {{"solo",
        {"CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart@20000000"}}});
  EXPECT_TRUE(result.ok) << checkers::render(result.findings)
                         << result.error_text;
  ASSERT_EQ(result.vms.size(), 1u);
  // 64-bit layout retained (d3 never fired).
  EXPECT_EQ(result.vms[0].tree->root().address_cells_or_default(), 2u);
  EXPECT_EQ(result.vms[0].tree->find("/vEthernet"), nullptr);
  EXPECT_EQ(result.vms[0].config.cpu_affinity, 0b01u);
}

TEST_P(PipelineTest, ChecksCanBeDisabled) {
  api::SessionRequest opts = request(running_example_core_dts_with_uart_clash());
  opts.semantics = false;
  Result result = run_workflow(
      opts,
      {{"vm",
        {"CustomSBC", "memory", "cpus", "cpu@0", "uarts", "uart@20000000",
         "uart@30000000"}}});
  EXPECT_TRUE(result.ok)
      << "with the semantic stage off, the clash goes unnoticed: "
      << checkers::render(result.findings);
}

TEST_P(PipelineTest, GeneratedDtsRoundTripsThroughParser) {
  Result result = run_workflow(request(), paper_vms());
  ASSERT_TRUE(result.ok);
  for (const EmittedVm& vm : result.vms) {
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
  auto run_with = [&](unsigned jobs) {
    return run_workflow(
        request(running_example_core_dts(), running_example_deltas_without_d4()),
        paper_vms(), jobs);
  };
  Result serial = run_with(1);
  Result parallel = run_with(4);

  EXPECT_EQ(serial.ok, parallel.ok);
  EXPECT_EQ(checkers::render(serial.findings),
            checkers::render(parallel.findings));
  EXPECT_EQ(checkers::report_json(serial.findings),
            checkers::report_json(parallel.findings));
  EXPECT_EQ(checkers::to_sarif(serial.findings, "pipeline"),
            checkers::to_sarif(parallel.findings, "pipeline"));
  EXPECT_EQ(serial.error_text, parallel.error_text);

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
    return run_workflow(request(), paper_vms(), jobs);
  };
  Result serial = run_with(1);
  Result parallel = run_with(4);
  EXPECT_TRUE(parallel.ok) << checkers::render(parallel.findings);
  EXPECT_EQ(checkers::render(serial.findings),
            checkers::render(parallel.findings));
  EXPECT_EQ(serial.vm_config_c, parallel.vm_config_c);
  EXPECT_EQ(serial.platform_dts_text, parallel.platform_dts_text);
}

TEST_P(PipelineTest, TraceRecordsEveryStage) {
  Result result = run_workflow(request(), paper_vms());
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.trace.total_ms, 0.0);
  auto has = [&](const std::string& unit, const std::string& stage) {
    for (const obs::StageSummary& s : result.trace.stages) {
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
  for (const obs::StageSummary& s : result.trace.stages) {
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

// The planner's headline guarantee: routing the semantic stage through
// sweep-line pruning and batched guarded queries changes no user-visible
// byte. Uses the finding-rich broken product line so witnesses, delta
// blame and provenance are all exercised.
TEST_P(PipelineTest, PlannedFindingsByteIdenticalToExhaustive) {
  auto run_with = [&](bool plan) {
    api::SessionRequest opts =
        request(running_example_core_dts(), running_example_deltas_without_d4());
    opts.plan = plan;
    return run_workflow(opts, paper_vms());
  };
  Result planned = run_with(true);
  Result exhaustive = run_with(false);

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
    api::SessionRequest opts = request();
    opts.check_allocation = false;
    opts.plan = plan;
    return run_workflow(opts, vms);
  };
  Result planned = run_with(true);
  Result exhaustive = run_with(false);
  EXPECT_EQ(checkers::render(planned.findings),
            checkers::render(exhaustive.findings));
  // The ratio is the semantic stage's: --no-plan leaves the syntactic
  // stage's queries unchanged, so they are excluded from it.
  auto semantic_checks = [](const Result& r) {
    uint64_t n = 0;
    for (const obs::StageSummary& s : r.trace.stages) {
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
  const std::string cache_dir = ::testing::TempDir() +
                                "/llhsc-pipeline-warm-cache-" +
                                std::string(smt::to_string(GetParam()));
  std::filesystem::remove_all(cache_dir);
  auto run_once = [&] {
    api::SessionRequest opts =
        request(running_example_core_dts(), running_example_deltas_without_d4());
    opts.cache_dir = cache_dir;
    return run_workflow(opts, paper_vms());
  };
  Result cold = run_once();
  Result warm = run_once();

  EXPECT_GT(cold.trace.total_queries_issued(), 0u)
      << "cold run must actually consult the solver";
  EXPECT_EQ(warm.trace.total_queries_issued(), 0u)
      << "warm run must be served entirely from the cache";
  for (const obs::StageSummary& s : warm.trace.stages) {
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

// Learned-clause retention acceptance: on the eight-VM workload, where every
// unit's queries share one solver and each closed scope keeps the
// guard-independent learned clauses, the report must be byte-identical to
// the z3 and portfolio backends'.
TEST(PipelineRetentionTest, EightVmReportStableAndConflictsDoNotGrow) {
  std::vector<VmSpec> vms;
  for (int i = 0; i < 8; ++i) {
    vms.push_back({"vm" + std::to_string(i),
                   i % 2 == 0 ? fig1b_features() : fig1c_features()});
  }
  auto run_with = [&](smt::Backend backend) {
    api::SessionRequest opts = running_example_request();
    opts.backend = std::string(smt::to_string(backend));
    opts.check_allocation = false;
    return run_workflow(opts, vms);
  };

  Result retained = run_with(smt::Backend::kBuiltin);
  for (smt::Backend other : {smt::Backend::kZ3, smt::Backend::kPortfolio}) {
    SCOPED_TRACE(std::string(smt::to_string(other)));
    Result r = run_with(other);
    // Verdict transparency: retention and racing are pure optimisations.
    EXPECT_EQ(checkers::render(retained.findings),
              checkers::render(r.findings));
    EXPECT_EQ(checkers::report_json(retained.findings),
              checkers::report_json(r.findings));
    EXPECT_EQ(retained.ok, r.ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PipelineTest,
                         ::testing::ValuesIn(smt::all_backends()),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

}  // namespace
}  // namespace llhsc::core
