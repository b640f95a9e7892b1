#include "server/check_service.hpp"

#include <algorithm>

#include "checkers/report.hpp"
#include "checkers/suppress.hpp"
#include "dts/parser.hpp"
#include "obs/obs.hpp"
#include "schema/builtin_schemas.hpp"
#include "schema/yaml_lite.hpp"
#include "support/strings.hpp"

namespace llhsc::server {

namespace {

void render_outcome(const api::CheckRequest& request,
                    const checkers::Findings& findings, api::CheckResult& out) {
  out.errors = checkers::error_count(findings);
  out.warnings = findings.size() - out.errors;
  if (request.format == "json") {
    out.output += checkers::report_json(findings) + "\n";
  } else if (request.format == "sarif") {
    out.output += checkers::to_sarif(findings, request.path);
  } else {
    if (!request.quiet) out.output += checkers::render(findings);
    out.output += request.path + ": " + std::to_string(out.errors) +
                  " error(s), " + std::to_string(out.warnings) +
                  " warning(s)\n";
  }
  out.exit_code = out.errors == 0 ? 0 : 1;
}

void append_stats_line(const api::CheckRequest& request,
                       const CheckArtifact& art, size_t suppressed,
                       api::CheckResult& out) {
  // With --no-semantics the solver counters are all zero, but the line still
  // prints: the suppressed count is meaningful for every stage.
  if (!request.stats) return;
  out.error_text += "semantic solver checks: " +
                    std::to_string(art.solver_checks) +
                    ", queries issued: " + std::to_string(art.queries_issued) +
                    ", queries pruned: " + std::to_string(art.queries_pruned) +
                    ", cache hits: " + std::to_string(art.cache_hits) +
                    ", cache errors: " + std::to_string(art.cache_errors) +
                    ", suppressed: " + std::to_string(suppressed) + "\n";
}

api::CheckResult check(const api::CheckRequest& request, ArtifactStore& store,
                       const support::Deadline& deadline) {
  api::CheckResult out;

  if (request.format != "text" && request.format != "json" &&
      request.format != "sarif") {
    out.error_text +=
        "unknown --format '" + request.format + "' (want text|json|sarif)\n";
    out.exit_code = 2;
    return out;
  }
  // The CLI's --disable-rule / --rule-severity mapping, error text included
  // byte-for-byte (one shared parser, checkers/crossref/rules.cpp).
  auto rules = checkers::crossref::parse_rule_options(
      request.disable_rule, request.rule_severity, out.error_text);
  if (!rules) {
    out.exit_code = 2;
    return out;
  }
  // Baseline validation is a usage check: a malformed file is exit 2 before
  // any (potentially cached) verdict work happens.
  checkers::SuppressionIndex suppressions;
  if (!request.baseline_text.empty()) {
    std::string error;
    if (!suppressions.load_baseline(request.baseline_text, error)) {
      out.error_text += "bad --baseline file: " + error + "\n";
      out.exit_code = 2;
      return out;
    }
  }

  // Parse — identical failure contract to the CLI's parse_file_or_die:
  // exit 1 with the rendered diagnostics; parse *warnings* on a usable tree
  // are not rendered.
  dts::SourceManager sources =
      request_sources(request.includes, request.base_directory);
  const std::shared_ptr<const TreeArtifact> tree_artifact = store.tree(
      request.source, request.path, sources, &out.trace.tree_cache_hit);
  if (tree_artifact->parse_errors) {
    out.error_text += tree_artifact->diagnostics_text;
    out.exit_code = 1;
    return out;
  }

  // The backend warning is emitted here — after the parse, like the CLI.
  checkers::BatteryOptions options{
      .backend = smt::backend_from_name(request.backend, &out.error_text),
      .lint = request.lint, .crossref = request.crossref,
      .graph = request.graph, .syntax = request.syntax,
      .semantics = request.semantics, .rules = std::move(*rules),
      .semantic = {.solver_timeout_ms = request.solver_timeout_ms,
                   .plan = request.plan, .cache_dir = request.cache_dir}};

  // Schema-set resolution before the (cacheable) checker battery, so an
  // exit-2 never has to come out of a cached verdict. Matches the CLI's
  // lazy schemas_from(): parse errors surface only when syntax runs.
  schema::SchemaSet loaded;
  options.schemas =
      load_request_schemas(request.syntax, request.schemas_text,
                           request.schemas_path, loaded, out.error_text);
  if (options.schemas == nullptr) {
    out.exit_code = 2;
    return out;
  }

  const uint64_t options_key =
      key_then_clamp(options, request.schemas_text, deadline);
  // The device graph is its own keyed artifact (option-independent),
  // asked for only when the verdict actually rebuilds — a cache-hit
  // request never builds a graph.
  checkers::GraphSource graph_source;
  if (request.graph) {
    graph_source = [&](const checkers::crossref::AnalysisContext& ctx) {
      return store.graph(tree_artifact->key, tree_artifact->tree, nullptr, &ctx)
          ->graph;
    };
  }

  // tree_artifact->key is include-aware (see TreeArtifact::key): an edited
  // .dtsi re-parses the tree *and* lands here as a new verdict key.
  const uint64_t key = fnv_combine(options_key, tree_artifact->key);
  const std::shared_ptr<const CheckArtifact> verdict = store.unit_check(
      key,
      [&]() {
        const checkers::BatteryResult checked =
            checkers::run_battery(*tree_artifact->tree, options, graph_source);
        return CheckArtifact{checked.counters, key, checked.all()};
      },
      &out.trace.check_cache_hit);

  // Suppression runs over a copy of the (possibly cached) verdict: inline
  // `// llhsc-disable-next-line` comments from every source the findings
  // touch, plus the baseline loaded above. Verdict artifacts stay pristine.
  checkers::Findings findings = verdict->findings;
  size_t suppressed = 0;
  if (!findings.empty()) {
    suppressions.add_source(request.path, request.source);
    std::vector<std::string> scanned = {request.path};
    for (const auto& [name, content] : request.includes) {
      suppressions.add_source(name, content);
      scanned.push_back(name);
    }
    for (const checkers::Finding& f : findings) {
      if (!f.location.valid()) continue;
      if (std::find(scanned.begin(), scanned.end(), f.location.file) !=
          scanned.end()) {
        continue;
      }
      scanned.push_back(f.location.file.str());
      // Disk-resolved includes: the location names the include as the
      // SourceManager registered it.
      if (auto text = sources.load(f.location.file.str())) {
        suppressions.add_source(f.location.file.str(), *text);
      }
    }
    suppressed = suppressions.apply(findings);
    obs::count("suppress.filtered", "suppress",
               static_cast<int64_t>(suppressed));
  }

  append_stats_line(request, *verdict, suppressed, out);
  render_outcome(request, findings, out);
  out.trace.suppressed = suppressed;
  out.trace.solver_checks = verdict->solver_checks;
  out.trace.queries_issued = verdict->queries_issued;
  out.trace.queries_pruned = verdict->queries_pruned;
  out.trace.cache_hits = verdict->cache_hits;
  out.trace.cache_errors = verdict->cache_errors;
  return out;
}

}  // namespace

dts::SourceManager request_sources(
    const std::vector<std::pair<std::string, std::string>>& includes,
    const std::string& base_directory) {
  dts::SourceManager sources;
  for (const auto& [name, content] : includes) {
    sources.register_file(name, content);
  }
  if (!base_directory.empty()) sources.set_base_directory(base_directory);
  return sources;
}

const schema::SchemaSet* load_request_schemas(bool syntax,
                                              const std::string& schemas_text,
                                              const std::string& schemas_path,
                                              schema::SchemaSet& loaded,
                                              std::string& error_text) {
  if (!syntax) return &loaded;
  if (schemas_text.empty()) return &schema::builtin_schemas();
  support::DiagnosticEngine diags;
  schema::load_schema_stream(
      schemas_text, loaded, diags,
      schemas_path.empty() ? std::string_view("<yaml>") : schemas_path);
  if (!diags.has_errors()) return &loaded;
  error_text += diags.render();
  return nullptr;
}

uint64_t key_then_clamp(checkers::BatteryOptions& options,
                        std::string_view schemas_text,
                        const support::Deadline& deadline) {
  const uint64_t key = fnv_combine(checkers::fingerprint(options),
                                   support::fnv1a64(schemas_text));
  uint64_t& budget = options.semantic.solver_timeout_ms;
  if (!deadline.unlimited()) {
    const uint64_t remaining = deadline.remaining_ms();
    budget = std::max<uint64_t>(
        1, budget == 0 ? remaining : std::min(budget, remaining));
  }
  return key;
}

api::CheckResult run_check(const api::CheckRequest& request,
                           ArtifactStore& store,
                           const support::Deadline& deadline) {
  api::CheckResult out = check(request, store, deadline);
  out.status = api::error_code_of_exit(out.exit_code);
  return out;
}

}  // namespace llhsc::server
