#include "checkers/battery.hpp"

#include <optional>
#include <sstream>

#include "checkers/crossref/context.hpp"
#include "checkers/graph/rules.hpp"
#include "checkers/lint.hpp"
#include "checkers/syntactic.hpp"
#include "obs/obs.hpp"
#include "obs/summary.hpp"
#include "support/strings.hpp"

namespace llhsc::checkers {

uint64_t fingerprint(const BatteryOptions& options) {
  std::ostringstream os;
  os << smt::to_string(options.backend) << '\n'
     << options.lint << options.crossref << options.graph << options.syntax
     << options.semantics << '\n';
  for (const std::string& id : options.rules.disabled) os << id << ',';
  os << '\n';
  for (const auto& [id, severity] : options.rules.severity_overrides) {
    os << id << '=' << static_cast<int>(severity) << ',';
  }
  const SemanticOptions& sem = options.semantic;
  os << '\n'
     << sem.address_bits << ' ' << sem.plan << ' ' << sem.solver_timeout_ms
     << '\n'
     << sem.cache_dir << '\n';
  return support::fnv1a64(os.str());
}

Findings BatteryResult::all() const {
  Findings out;
  for (const Findings& stage : stages) {
    out.insert(out.end(), stage.begin(), stage.end());
  }
  return out;
}

BatteryResult run_battery(const dts::Tree& tree, const BatteryOptions& options,
                          const GraphSource& graph_source) {
  BatteryResult result;

  // The battery records into a local sink first: the result's counters are
  // a reduction of that stream (the same obs::reduce behind --trace-json
  // and the daemon stats reply), and the raw events then splice into
  // whatever sink the caller installed, so --profile sees per-query spans.
  obs::TraceSink* outer = obs::current_sink();
  obs::TraceSink local;
  {
    obs::ScopedSink sink_guard(&local);
    // One analysis context and one device graph per check (the graph may
    // come from the caller's source), each made on a stage's first need,
    // outside every stage's scope and span, and shared by every stage that
    // reads it. Every stage reads the context.
    std::optional<crossref::AnalysisContext> ctx;
    std::shared_ptr<const graph::DeviceGraph> device_graph;
    auto prepare = [&](bool needs_graph) {
      if (!ctx) ctx.emplace(tree);
      if (needs_graph && device_graph == nullptr) {
        device_graph = graph_source
                           ? graph_source(*ctx)
                           : std::make_shared<const graph::DeviceGraph>(
                                 graph::DeviceGraph::build(*ctx));
      }
    };

    // `stage` and `span_name` are literals: spans keep only the pointer
    // until they record.
    auto run_stage = [&](bool enabled, const char* stage,
                         const char* span_name, bool needs_graph,
                         auto&& check) {
      if (!enabled) return;
      prepare(needs_graph);
      Findings f;
      {
        obs::ScopedScope scope_guard(stage);
        obs::Span span(span_name, "stage");
        f = check();
        obs::count("stage.findings", "stage", static_cast<int64_t>(f.size()));
      }
      result.stages.push_back(std::move(f));
    };

    run_stage(options.lint, "lint", "stage.lint", false,
              [&] { return LintChecker().check(*ctx); });
    run_stage(options.crossref, "crossref", "stage.crossref", true, [&] {
      return crossref::CrossRefChecker(options.rules)
          .check(*ctx, *device_graph);
    });
    run_stage(options.graph, "graph", "stage.graph", true, [&] {
      return graph::GraphChecker(options.rules).check(*device_graph);
    });
    run_stage(options.syntax && options.schemas != nullptr, "syntactic",
              "stage.syntactic", false, [&] {
                // The semantic stage's cache: --no-plan stays uncached.
                return SyntacticChecker(*options.schemas, options.backend,
                                        options.semantic.plan
                                            ? options.semantic.cache_dir
                                            : std::string())
                    .check(*ctx);
              });
    run_stage(options.semantics, "semantic", "stage.semantic", false, [&] {
      return SemanticChecker(options.backend, options.semantic).check(*ctx);
    });
  }

  std::vector<obs::Event> events = local.take();
  const obs::Summary summary = obs::reduce(events);
  // The counters keep their historical meaning: solver/planner work of the
  // *semantic* stage (the syntactic stage's solver and planner work was
  // never part of the --stats line).
  auto semantic = [&](const char* name) {
    const int64_t v = summary.scoped("semantic", name);
    return v < 0 ? 0u : static_cast<uint64_t>(v);
  };
  result.counters.solver_checks = semantic("solver.checks");
  result.counters.queries_issued = semantic("planner.queries_issued");
  result.counters.queries_pruned = semantic("planner.queries_pruned");
  result.counters.cache_hits = semantic("planner.cache_hits");
  result.counters.cache_errors = semantic("planner.cache_errors");
  if (outer != nullptr) outer->extend(std::move(events));
  return result;
}

}  // namespace llhsc::checkers
