#include "server/session.hpp"

#include <algorithm>
#include <sstream>

#include "checkers/graph/rules.hpp"
#include "checkers/resource_allocation.hpp"
#include "lift/lift.hpp"
#include "server/check_service.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace llhsc::server {

namespace {

api::StoreStats stats_delta(const api::StoreStats& before,
                            const api::StoreStats& after) {
  api::StoreStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.tree_parses = after.tree_parses - before.tree_parses;
  d.delta_parses = after.delta_parses - before.delta_parses;
  d.model_parses = after.model_parses - before.model_parses;
  d.product_line_builds =
      after.product_line_builds - before.product_line_builds;
  d.derives = after.derives - before.derives;
  d.unit_checks = after.unit_checks - before.unit_checks;
  d.graph_builds = after.graph_builds - before.graph_builds;
  d.cross_checks = after.cross_checks - before.cross_checks;
  d.lifted_checks = after.lifted_checks - before.lifted_checks;
  return d;
}

/// Counts and renders `findings` into `unit`, then appends it with its
/// findings and tree.
void add_unit(SessionRun& out, api::SessionUnitResult unit,
              checkers::Findings findings,
              std::shared_ptr<const dts::Tree> tree = nullptr) {
  unit.errors = checkers::error_count(findings);
  unit.warnings = findings.size() - unit.errors;
  unit.report = checkers::render(findings);
  out.checked.push_back({unit.name, std::move(tree), std::move(findings)});
  out.units.push_back(std::move(unit));
}

/// Moves a sink's events to the end of the run's stream.
void append_events(obs::TraceSink& sink, std::vector<obs::Event>& events) {
  std::vector<obs::Event> taken = sink.take();
  events.insert(events.end(), std::make_move_iterator(taken.begin()),
                std::make_move_iterator(taken.end()));
}

/// The feature model the `what` check needs, or null with the request's
/// error recorded: exit 2 without a model, 1 when it does not parse.
std::shared_ptr<const ModelArtifact> load_model(
    const api::SessionRequest& request, const char* what,
    ArtifactStore& store, api::SessionResult& out) {
  if (request.model_source.empty()) {
    out.error_text += std::string(what) + " requires a feature model\n";
    out.exit_code = 2;
    return nullptr;
  }
  auto model = store.model(request.model_source, request.model_name);
  if (model->parse_errors || model->model == nullptr) {
    out.error_text += model->diagnostics_text;
    out.exit_code = 1;
    return nullptr;
  }
  return model;
}

/// One product (or the platform), derived and checked on one thread into
/// its own sink; merged into the run in declaration order.
struct UnitSlot {
  /// False when the product has no delta application order: no unit.
  bool listed = false;
  /// An ordering or derive error: the request's exit 1, no check.
  bool failed = false;
  api::SessionUnitResult unit;
  checkers::Findings findings;
  std::string error_text;
  uint64_t composed_key = 0;
  std::shared_ptr<const ComposedArtifact> composed;  // set when checked
  std::vector<obs::Event> events;
};

/// The session body. Records into the caller-installed run sink, except
/// the per-product units, which record into their own sinks; `events`
/// receives the run sink's events so far before the units' are appended.
void check_session(const api::SessionRequest& request, ArtifactStore& store,
                   const support::Deadline& deadline, unsigned jobs,
                   obs::TraceSink& run_sink, SessionRun& out) {
  dts::SourceManager sources =
      request_sources(request.includes, request.base_directory);
  auto core = store.tree(request.core_source, request.core_name, sources);
  if (core->parse_errors) {
    out.error_text += core->diagnostics_text;
    out.exit_code = 1;
    return;
  }
  auto deltas = store.deltas(request.deltas_source, request.deltas_name);
  if (deltas->parse_errors) {
    out.error_text += deltas->diagnostics_text;
    out.exit_code = 1;
    return;
  }
  auto pl = store.product_line(*core, deltas);
  if (pl == nullptr || pl->product_line == nullptr) {
    out.error_text += "cannot build product line\n";
    out.exit_code = 1;
    return;
  }

  // Schema-set parse errors reject the whole request up front, exactly once
  // — never from inside a cached verdict. Sessions carry no schema path.
  schema::SchemaSet loaded;
  const schema::SchemaSet* schemas =
      load_request_schemas(request.syntax, request.schemas_text,
                           /*schemas_path=*/"", loaded, out.error_text);
  if (schemas == nullptr) {
    out.exit_code = 2;
    return;
  }

  // The per-unit battery: the cross-reference engine is off. Sessions never
  // print the unknown-backend warning.
  checkers::BatteryOptions options{
      .backend = smt::backend_from_name(request.backend),
      .lint = request.lint, .crossref = false, .graph = request.graph,
      .syntax = request.syntax, .semantics = request.semantics,
      .schemas = schemas,
      .semantic = {.solver_timeout_ms = request.solver_timeout_ms,
                   .plan = request.plan, .cache_dir = request.cache_dir}};
  const uint64_t options_key =
      key_then_clamp(options, request.schemas_text, deadline);

  // -- Allocation (§IV-A): global over every product, so it runs first --
  if (request.check_allocation) {
    auto model = load_model(request, "check_allocation", store, out);
    if (model == nullptr) return;
    std::vector<feature::FeatureId> exclusive;
    for (const std::string& name : request.exclusive) {
      auto id = model->model->find(name);
      if (!id) {
        out.error_text += "unknown exclusive feature '" + name + "'\n";
        out.exit_code = 2;
        return;
      }
      exclusive.push_back(*id);
    }
    std::ostringstream ks;
    ks << request.backend << '\n';
    for (const std::string& name : request.exclusive) ks << name << ' ';
    ks << '\n';
    for (const api::SessionProduct& p : request.products) {
      for (const std::string& f : p.features) ks << f << ' ';
      ks << '\n';
    }
    const uint64_t alloc_key =
        fnv_combine(support::fnv1a64(ks.str()), model->key);
    auto alloc = store.allocation(alloc_key, [&]() {
      AllocationArtifact art;
      art.key = alloc_key;
      obs::ScopedUnit unit_guard("*");
      obs::ScopedScope scope_guard("allocation");
      obs::Span span("stage.allocation", "stage");
      checkers::ResourceAllocationChecker rac(*model->model, exclusive,
                                              options.backend);
      std::vector<std::set<std::string>> features;
      features.reserve(request.products.size());
      for (const api::SessionProduct& p : request.products) {
        features.push_back(p.features);
      }
      art.findings = rac.check(features);
      checkers::sort_by_location(art.findings);
      obs::count("stage.findings", "stage",
                 static_cast<int64_t>(art.findings.size()));
      return art;
    });
    api::SessionUnitResult unit;
    unit.name = "*";
    add_unit(out, std::move(unit), alloc->findings);
  }

  // -- Lifted family analysis: one unit whose verdict covers EVERY
  // configuration. The key composes the core, every delta module in
  // declaration order (the family depends on all of them — there is no
  // per-product subset to scope to), the model, and the lifted options, so
  // editing any input re-runs exactly one family analysis and everything
  // else stays cached.
  if (request.check_lifted) {
    auto model = load_model(request, "check_lifted", store, out);
    if (model == nullptr) return;
    std::ostringstream ks;
    ks << request.backend << '\n' << request.lifted_max_configs << '\n';
    for (const std::string& name : request.exclusive) ks << name << ' ';
    uint64_t lifted_key =
        fnv_combine(support::fnv1a64(ks.str()), 0x6c696674u /*"lift"*/);
    lifted_key = fnv_combine(lifted_key, pl->key);
    lifted_key = fnv_combine(lifted_key, model->key);
    api::SessionUnitResult unit;
    unit.name = "*lifted*";
    auto verdict = store.lifted_check(
        lifted_key,
        [&]() {
          CheckArtifact art;
          art.key = lifted_key;
          lift::LiftOptions opts;
          opts.backend = options.backend;
          opts.max_configs = request.lifted_max_configs;
          opts.exclusive_features = request.exclusive;
          support::DiagnosticEngine diags;
          lift::LiftedResult lifted = lift::check_family(
              *pl->product_line, *model->model, opts, diags);
          art.findings = lift::flatten(lifted);
          if (lifted.ok) {
            art.diagnostics_text = diags.render();
          } else {
            checkers::Finding refused;
            refused.kind = checkers::FindingKind::kDeriveFailure;
            refused.subject = "*lifted*";
            refused.message =
                "lifted analysis incomplete or refused: " + diags.render();
            art.findings.push_back(std::move(refused));
          }
          return art;
        },
        &unit.check_cache_hit);
    out.error_text += verdict->diagnostics_text;
    add_unit(out, std::move(unit), verdict->findings);
  }

  // -- Per-product units, platform (union of selections) last --
  std::vector<api::SessionProduct> units = request.products;
  if (request.check_platform) {
    api::SessionProduct platform;
    platform.name = "platform";
    for (const api::SessionProduct& p : request.products) {
      platform.features.insert(p.features.begin(), p.features.end());
    }
    units.push_back(std::move(platform));
  }

  const delta::ProductLine& product_line = *pl->product_line;
  const std::vector<delta::DeltaModule>& modules = product_line.deltas();

  auto check_unit = [&](const api::SessionProduct& product, UnitSlot& slot) {
    support::DiagnosticEngine order_diags;
    auto order = product_line.application_order(product.features, order_diags);
    if (!order) {
      slot.error_text = order_diags.render();
      slot.failed = true;
      return;
    }
    slot.listed = true;
    slot.unit.name = product.name;

    // The composed key names exactly the modules this product applies, in
    // application order — the heart of per-unit invalidation.
    uint64_t composed_key = fnv_combine(core->key, 0x636f6d70u /*"comp"*/);
    for (const delta::DeltaModule* m : *order) {
      const size_t idx = static_cast<size_t>(m - modules.data());
      composed_key = fnv_combine(composed_key, deltas->module_keys[idx]);
    }
    auto composed = store.composed(
        composed_key,
        [&]() {
          ComposedArtifact art;
          art.key = composed_key;
          support::DiagnosticEngine diags;
          {
            obs::ScopedScope scope_guard("derive");
            obs::Span span("stage.derive", "stage");
            art.tree = product_line.derive(product.features, diags);
          }
          art.diagnostics_text = diags.render();
          art.derive_errors = art.tree == nullptr || diags.has_errors();
          return art;
        },
        &slot.unit.composed_cache_hit);
    // Derive warnings (delta-order) go out on success too.
    slot.error_text = composed->diagnostics_text;
    if (composed->derive_errors || composed->tree == nullptr) {
      slot.failed = true;
      return;
    }

    const uint64_t check_key = fnv_combine(options_key, composed_key);
    auto verdict = store.unit_check(
        check_key,
        [&]() {
          // The unit's device graph is a separate keyed artifact under the
          // composed key: a one-delta edit re-derives exactly the affected
          // units' composed trees, and therefore exactly their graphs.
          checkers::GraphSource graph_source;
          if (request.graph) {
            graph_source = [&](const checkers::crossref::AnalysisContext& ctx) {
              return store.graph(composed_key, composed->tree, nullptr, &ctx)
                  ->graph;
            };
          }
          const checkers::BatteryResult checked =
              checkers::run_battery(*composed->tree, options, graph_source);
          checkers::Findings findings = checked.all();
          checkers::sort_by_location(findings);
          return CheckArtifact{checked.counters, check_key,
                               std::move(findings)};
        },
        &slot.unit.check_cache_hit);
    slot.findings = verdict->findings;
    slot.composed_key = composed_key;
    slot.composed = std::move(composed);
  };

  // Each unit records into its own sink under its own obs unit, so units
  // on different threads never interleave in the run's stream.
  std::vector<UnitSlot> slots(units.size());
  auto run_unit = [&](size_t i) {
    obs::TraceSink unit_sink;
    {
      obs::ScopedSink sink_guard(&unit_sink);
      obs::ScopedUnit unit_guard(units[i].name);
      check_unit(units[i], slots[i]);
    }
    slots[i].events = unit_sink.take();
  };
  append_events(run_sink, out.events);
  jobs = support::ThreadPool::resolve_jobs(jobs);
  if (jobs <= 1 || units.size() <= 1) {
    for (size_t i = 0; i < units.size(); ++i) run_unit(i);
  } else {
    support::ThreadPool pool(
        static_cast<unsigned>(std::min<size_t>(jobs, units.size())));
    support::parallel_for(pool, units.size(), run_unit);
  }

  struct ProductGraphInput {
    std::string name;
    uint64_t composed_key;
    std::shared_ptr<const ComposedArtifact> composed;
  };
  std::vector<ProductGraphInput> product_graphs;
  for (UnitSlot& slot : slots) {
    out.error_text += slot.error_text;
    if (slot.failed) out.exit_code = 1;
    out.events.insert(out.events.end(),
                      std::make_move_iterator(slot.events.begin()),
                      std::make_move_iterator(slot.events.end()));
    if (!slot.listed) continue;
    std::shared_ptr<const dts::Tree> tree;
    if (slot.composed != nullptr) {
      tree = slot.composed->tree;
      if (request.graph && slot.unit.name != "platform") {
        product_graphs.push_back(
            {slot.unit.name, slot.composed_key, slot.composed});
      }
    }
    add_unit(out, std::move(slot.unit), std::move(slot.findings),
             std::move(tree));
  }

  // -- Cross-unit graph analysis: two VMs claiming one exclusive provider.
  // Cached under the fold of every product's composed key (order matters),
  // so only a change to some product's tree recomputes it; the per-unit
  // graphs it reads are the same keyed artifacts the unit checks built.
  if (request.graph && product_graphs.size() >= 2) {
    uint64_t cross_key = fnv_combine(options_key, 0x78756e69u /*"xuni"*/);
    for (const ProductGraphInput& pg : product_graphs) {
      cross_key = fnv_combine(support::fnv1a64(pg.name, cross_key),
                              pg.composed_key);
    }
    bool cross_hit = false;
    auto cross = store.cross_check(
        cross_key,
        [&]() {
          CheckArtifact art;
          art.key = cross_key;
          obs::ScopedUnit unit_guard("*");
          obs::ScopedScope scope_guard("graph-cross");
          obs::Span span("stage.graph-cross", "stage");
          std::vector<std::shared_ptr<const GraphArtifact>> artifacts;
          std::vector<checkers::graph::UnitGraph> unit_graphs;
          for (const ProductGraphInput& pg : product_graphs) {
            auto ga = store.graph(pg.composed_key, pg.composed->tree);
            if (ga == nullptr || ga->graph == nullptr) continue;
            unit_graphs.push_back({pg.name, ga->graph.get()});
            artifacts.push_back(std::move(ga));
          }
          art.findings = checkers::graph::check_exclusive_providers(
              unit_graphs);
          checkers::sort_by_location(art.findings);
          obs::count("stage.findings", "stage",
                     static_cast<int64_t>(art.findings.size()));
          return art;
        },
        &cross_hit);
    if (!cross->findings.empty()) {
      api::SessionUnitResult unit;
      unit.name = "*graph*";
      unit.check_cache_hit = cross_hit;
      add_unit(out, std::move(unit), cross->findings);
    }
  }

  if (out.exit_code == 0) {
    for (const api::SessionUnitResult& u : out.units) {
      if (u.errors > 0) {
        out.exit_code = 1;
        break;
      }
    }
  }
}

}  // namespace

checkers::Findings SessionRun::findings() const {
  checkers::Findings out;
  for (const core::CheckedUnit& unit : checked) {
    out.insert(out.end(), unit.findings.begin(), unit.findings.end());
  }
  return out;
}

SessionRun run_session_check(const api::SessionRequest& request,
                             ArtifactStore& store,
                             const support::Deadline& deadline,
                             unsigned jobs) {
  SessionRun out;
  const api::StoreStats before = store.stats();
  obs::TraceSink* const caller_sink = obs::current_sink();
  obs::TraceSink run_sink;
  {
    obs::ScopedSink sink_guard(&run_sink);
    check_session(request, store, deadline, jobs, run_sink, out);
  }
  append_events(run_sink, out.events);
  if (caller_sink != nullptr) caller_sink->extend(out.events);
  out.cost = stats_delta(before, store.stats());
  out.status = api::error_code_of_exit(out.exit_code);
  return out;
}

}  // namespace llhsc::server
