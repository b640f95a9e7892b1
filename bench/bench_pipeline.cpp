// E10 — the full Fig. 2 workflow on the paper's two-VM configuration: all
// three checkers plus artifact generation, per backend, and a stage
// breakdown (allocation / syntax / semantics toggled off individually).
// Every run is what `llhsc demo` does: one product-line session over a store
// local to the run (server::run_session_check), then artifact emission
// (core::emit). Identical products share one derive and one check.
#include <benchmark/benchmark.h>

#include "core/emit.hpp"
#include "core/running_example.hpp"
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
