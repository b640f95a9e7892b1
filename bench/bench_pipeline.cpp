// E10 — the full Fig. 2 workflow on the paper's two-VM configuration: all
// three checkers plus artifact generation, per backend, and a stage
// breakdown (allocation / syntax / semantics toggled off individually).
// Every run is what `llhsc demo` does: one product-line session over a store
// local to the run (server::run_session_check), then artifact emission
// (core::emit). Identical products share one derive and one check.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/emit.hpp"
#include "core/running_example.hpp"
#include "obs/obs.hpp"
#include "obs/summary.hpp"
#include "server/session.hpp"

using namespace llhsc;

namespace {

const char* backend_of(int64_t i) { return i == 0 ? "builtin" : "z3"; }

/// The paper's two VMs over `deltas`.
api::SessionRequest paper_request(
    const char* deltas = core::running_example_deltas()) {
  api::SessionRequest request =
      core::running_example_request(core::running_example_core_dts(), deltas);
  request.products = {{"vm1", core::fig1b_features()},
                      {"vm2", core::fig1c_features()}};
  return request;
}

/// The two-VM example widened to eight VMs (alternating Fig. 1b / Fig. 1c
/// configurations). Allocation is off: eight VMs deliberately reuse the
/// two-VM example's exclusive CPUs.
api::SessionRequest eight_vm_request() {
  api::SessionRequest request = core::running_example_request();
  for (int i = 0; i < 8; ++i) {
    request.products.push_back({"vm" + std::to_string(i + 1),
                                i % 2 == 0 ? core::fig1b_features()
                                           : core::fig1c_features()});
  }
  request.check_allocation = false;
  return request;
}

struct Run {
  server::SessionRun session;
  core::Artifacts artifacts;
};

Run run_workflow(const api::SessionRequest& request, unsigned jobs = 1) {
  server::ArtifactStore store;
  server::SessionRun session =
      server::run_session_check(request, store, /*deadline=*/{}, jobs);
  core::Artifacts artifacts = core::emit(session.checked);
  return Run{std::move(session), std::move(artifacts)};
}

void BM_FullPipeline(benchmark::State& state) {
  api::SessionRequest request = paper_request();
  request.backend = backend_of(state.range(0));
  bool ok = false;
  for (auto _ : state) {
    Run run = run_workflow(request);
    ok = run.session.exit_code == 0;
    benchmark::DoNotOptimize(run);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.SetLabel(backend_of(state.range(0)));
}
BENCHMARK(BM_FullPipeline)->Arg(0)->Arg(1);

// Stage ablation: each stage disabled in turn (builtin backend).
void BM_PipelineStageAblation(benchmark::State& state) {
  api::SessionRequest request = paper_request();
  const char* label = "all-stages";
  switch (state.range(0)) {
    case 1: request.check_allocation = false; label = "no-allocation"; break;
    case 2: request.syntax = false; label = "no-syntax"; break;
    case 3: request.semantics = false; label = "no-semantics"; break;
    default: break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_workflow(request));
  }
  state.SetLabel(label);
}
BENCHMARK(BM_PipelineStageAblation)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Serial vs parallel scaling on the eight-VM workload. Real time is what
// matters here, not aggregate CPU time.
void BM_PipelineParallel(benchmark::State& state) {
  const api::SessionRequest request = eight_vm_request();
  bool ok = false;
  for (auto _ : state) {
    Run run = run_workflow(request, static_cast<unsigned>(state.range(0)));
    ok = run.session.exit_code == 0;
    benchmark::DoNotOptimize(run);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.SetLabel("jobs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PipelineParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Query-planner ablation on the eight-VM workload (the PR3 acceptance
// workload): exhaustive per-pair solving vs the planned path vs a warm
// persistent cache. Counters expose the trace totals the --trace-json
// output reports, so the ratio is auditable from the benchmark output.
//   mode 0 — exhaustive (plan=false)
//   mode 1 — planned (sweep-line + bucket prefilters, batched queries)
//   mode 2 — planned with a pre-populated --cache-dir (warm: zero queries)
void BM_PipelineEightVmPlanner(benchmark::State& state) {
  api::SessionRequest request = eight_vm_request();
  const int64_t mode = state.range(0);
  request.plan = mode != 0;
  std::string cache_dir;
  if (mode == 2) {
    cache_dir =
        (std::filesystem::temp_directory_path() / "llhsc-bench-pipeline-qc")
            .string();
    std::filesystem::remove_all(cache_dir);
    request.cache_dir = cache_dir;
    benchmark::DoNotOptimize(run_workflow(request));
  }
  std::vector<obs::Event> events;
  for (auto _ : state) {
    Run run = run_workflow(request);
    benchmark::DoNotOptimize(run);
    events = std::move(run.session.events);
  }
  if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir);
  // The trace reduction is the caller's (`demo --trace-json`), not the
  // workflow's: reduce the last run outside the timed loop, so this row
  // and the NoTrace / NoGraph rows time the same work.
  uint64_t checks = 0, issued = 0, pruned = 0, hits = 0;
  for (const obs::StageSummary& s : obs::reduce(events).stages) {
    if (s.stage != "semantic") continue;
    checks += s.solver_checks;
    issued += s.queries_issued;
    pruned += s.queries_pruned;
    hits += s.cache_hits;
  }
  state.counters["semantic_solver_checks"] = static_cast<double>(checks);
  state.counters["queries_issued"] = static_cast<double>(issued);
  state.counters["queries_pruned"] = static_cast<double>(pruned);
  state.counters["cache_hits"] = static_cast<double>(hits);
  const char* mode_name[] = {"exhaustive", "planned", "warm-cache"};
  state.SetLabel(mode_name[mode]);
}
BENCHMARK(BM_PipelineEightVmPlanner)->Arg(0)->Arg(1)->Arg(2);

// PR5 tracing-overhead gate (tools/bench_pr5.sh): the planned eight-VM
// workload with span capture killed. Compared against
// BM_PipelineEightVmPlanner/1 (identical work, spans on) to bound the
// observability layer's cost. Counter events still record either way — they
// are the accounting substrate behind the verdicts, not a profiling
// preference (src/obs/obs.hpp).
void BM_PipelineEightVmNoTrace(benchmark::State& state) {
  const api::SessionRequest request = eight_vm_request();
  obs::set_enabled(false);
  bool ok = false;
  for (auto _ : state) {
    Run run = run_workflow(request);
    ok = run.session.exit_code == 0;
    benchmark::DoNotOptimize(run);
  }
  obs::set_enabled(true);
  state.counters["ok"] = ok ? 1 : 0;
  state.SetLabel("planned-notrace");
}
BENCHMARK(BM_PipelineEightVmNoTrace);

// PR6 graph-overhead gate (tools/bench_pr6.sh): the planned eight-VM
// workload with the device-graph stage disabled. Compared against
// BM_PipelineEightVmPlanner/1 (identical work plus graph build, per-unit
// graph rules, and the cross-unit exclusive-provider analysis) to bound
// the dataflow layer's cost — it must stay on by default.
void BM_PipelineEightVmNoGraph(benchmark::State& state) {
  api::SessionRequest request = eight_vm_request();
  request.graph = false;
  bool ok = false;
  for (auto _ : state) {
    Run run = run_workflow(request);
    ok = run.session.exit_code == 0;
    benchmark::DoNotOptimize(run);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.SetLabel("planned-nograph");
}
BENCHMARK(BM_PipelineEightVmNoGraph);

// Failure path: the omitted-d4 configuration (checkers find the collisions).
void BM_PipelineFaultDetection(benchmark::State& state) {
  api::SessionRequest request =
      paper_request(core::running_example_deltas_without_d4());
  request.backend = backend_of(state.range(0));
  size_t findings = 0;
  for (auto _ : state) {
    Run run = run_workflow(request);
    findings = run.session.findings().size();
  }
  state.counters["findings"] = static_cast<double>(findings);
  state.SetLabel(backend_of(state.range(0)));
}
BENCHMARK(BM_PipelineFaultDetection)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
