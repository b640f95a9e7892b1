// The four timing gates of the check pipeline, in one plain executable:
//
//   warm_session_speedup   cold / warm eight-VM session           >= 5
//   lifted_speedup         2^12-family enumeration / lifted check >= 5
//   tracing_overhead_pct   planned eight-VM pipeline, spans on vs
//                          obs::set_enabled(false)                <= 2
//   graph_overhead_pct     planned eight-VM pipeline, device-graph
//                          stage on vs off                        <= 5
//
// Every gate uses one estimator: pairs of runs of its two variants,
// alternating which runs first, each timed in thread CPU time (every
// workload here runs on the calling thread), and the median of the
// per-pair ratios. On a shared host another process's load lands on both
// halves of a pair alike, and on neither half's CPU time. The verdicts and
// counters behind these workloads are ctests (PipelineTest, Session,
// LiftedSynthetic); this binary only times them.
//
// Usage: timing_gates (no flags; build Release). Prints one JSON line per
// gate, {"gate", "value", "bound", "pass"}, and exits 1 if any gate fails.
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "api/llhsc.hpp"
#include "checkers/semantic.hpp"
#include "core/emit.hpp"
#include "core/running_example.hpp"
#include "feature/analysis.hpp"
#include "lift/lift.hpp"
#include "lift/synthetic.hpp"
#include "obs/obs.hpp"
#include "server/session.hpp"
#include "smt/solver.hpp"
#include "support/diagnostics.hpp"

using namespace llhsc;

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_time(const std::function<bool()>& run) {
  const double start = thread_cpu_seconds();
  (void)run();
  return thread_cpu_seconds() - start;
}

/// The estimator: after one untimed run of each variant, 200 pairs of
/// (a, b) runs, a first in even pairs and b first in odd ones; returns the
/// median of the per-pair ratios time(a) / time(b). A variant returns true
/// when its run succeeded; the untimed runs must, or the gate's workload is
/// broken and the process exits 1 (a failing run may also be a fast one).
double paired_ratio(const char* gate, const std::function<bool()>& a,
                    const std::function<bool()>& b) {
  constexpr int kPairs = 200;
  if (!a() || !b()) {
    std::fprintf(stderr, "timing_gates: %s: a variant's run failed\n", gate);
    std::exit(1);
  }
  std::vector<double> ratios;
  ratios.reserve(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    double ta = 0;
    double tb = 0;
    if (i % 2 == 0) {
      ta = cpu_time(a);
      tb = cpu_time(b);
    } else {
      tb = cpu_time(b);
      ta = cpu_time(a);
    }
    ratios.push_back(ta / tb);
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  return ratios.size() % 2 == 1 ? ratios[mid]
                                : (ratios[mid - 1] + ratios[mid]) / 2;
}

/// Eight VMs alternating the Fig. 1b / Fig. 1c configurations.
std::vector<api::SessionProduct> eight_vms() {
  std::vector<api::SessionProduct> products;
  for (int i = 0; i < 8; ++i) {
    products.push_back({"vm" + std::to_string(i + 1),
                        i % 2 == 0 ? core::fig1b_features()
                                   : core::fig1c_features()});
  }
  return products;
}

/// The session-store workload: the running example's core, include and
/// deltas with the eight VMs, and no model or platform unit.
api::SessionRequest session_request() {
  api::SessionRequest r;
  r.core_source = core::running_example_core_dts();
  r.core_name = "custom-sbc.dts";
  r.includes.emplace_back("cpus.dtsi", core::running_example_cpus_dtsi());
  r.deltas_source = core::running_example_deltas();
  r.deltas_name = "custom-sbc.deltas";
  r.products = eight_vms();
  return r;
}

/// The pipeline workload (bench_pipeline's eight-VM request): the running
/// example request with the eight VMs and the platform, allocation off (the
/// eight VMs reuse the two-VM example's exclusive CPUs).
api::SessionRequest pipeline_request() {
  api::SessionRequest request = core::running_example_request();
  request.products = eight_vms();
  request.check_allocation = false;
  return request;
}

/// What `llhsc demo` does: one session over a store local to the run, then
/// artifact emission. True when the session is clean.
bool run_pipeline(const api::SessionRequest& request) {
  server::ArtifactStore store;
  server::SessionRun session = server::run_session_check(request, store);
  (void)core::emit(session.checked);
  return session.exit_code == 0;
}

/// Derives and semantic-checks every product of the synthetic family. True
/// when there is at least one product and every one derives.
bool enumerate_family(const lift::SyntheticSpl& spl) {
  checkers::SemanticChecker checker(smt::Backend::kBuiltin, {});
  smt::Solver solver(smt::Backend::kBuiltin);
  bool derived = true;
  auto check_product = [&](const feature::Selection& sel) {
    std::set<std::string> names;
    for (uint32_t i = 0; i < sel.size(); ++i) {
      if (sel[i]) names.insert(spl.model.feature(feature::FeatureId{i}).name);
    }
    support::DiagnosticEngine diags;
    auto tree = spl.line->derive(names, diags);
    if (tree == nullptr) {
      derived = false;
    } else {
      (void)checker.check(*tree);
    }
    return true;
  };
  return feature::enumerate_products(spl.model, solver, check_product) > 0 &&
         derived;
}

/// Prints the gate's JSON line; true when it passes. A bound of kind
/// `at_least` passes when value >= bound, otherwise when value <= bound.
bool report(const char* gate, double value, double bound, bool at_least) {
  const bool pass = at_least ? value >= bound : value <= bound;
  std::printf("{\"gate\": \"%s\", \"value\": %.2f, \"bound\": %g, "
              "\"pass\": %s}\n",
              gate, value, bound, pass ? "true" : "false");
  std::fflush(stdout);
  return pass;
}

}  // namespace

int main() {
  bool pass = true;

  {
    const api::SessionRequest request = session_request();
    api::CheckStore warm_store;
    const double speedup = paired_ratio(
        "warm_session_speedup",
        [&] {
          api::CheckStore store;
          return api::run_session(request, store).exit_code == 0;
        },
        [&] { return api::run_session(request, warm_store).exit_code == 0; });
    pass &= report("warm_session_speedup", speedup, 5, true);
  }

  {
    const lift::SyntheticSpl spl = lift::make_synthetic_spl(12, true);
    lift::LiftOptions opts;
    opts.max_configs = 4;
    const double speedup = paired_ratio(
        "lifted_speedup", [&] { return enumerate_family(spl); },
        [&] {
          support::DiagnosticEngine diags;
          return lift::check_family(*spl.line, spl.model, opts, diags).ok;
        });
    pass &= report("lifted_speedup", speedup, 5, true);
  }

  const api::SessionRequest traced = pipeline_request();
  {
    const double ratio = paired_ratio(
        "tracing_overhead_pct", [&] { return run_pipeline(traced); },
        [&] {
          obs::set_enabled(false);
          const bool ok = run_pipeline(traced);
          obs::set_enabled(true);
          return ok;
        });
    pass &= report("tracing_overhead_pct", (ratio - 1) * 100, 2, false);
  }

  {
    api::SessionRequest ungraphed = traced;
    ungraphed.graph = false;
    const double ratio = paired_ratio("graph_overhead_pct",
                                      [&] { return run_pipeline(traced); },
                                      [&] { return run_pipeline(ungraphed); });
    pass &= report("graph_overhead_pct", (ratio - 1) * 100, 5, false);
  }

  return pass ? 0 : 1;
}
