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

void render_outcome(const CheckRequest& request,
                    const checkers::Findings& findings, CheckOutcome& out) {
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

void append_stats_line(const CheckRequest& request, const CheckArtifact& art,
                       size_t suppressed, CheckOutcome& out) {
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

}  // namespace

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

CheckOutcome run_check(const CheckRequest& request, ArtifactStore* store,
                       const support::Deadline& deadline) {
  CheckOutcome out;

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
  dts::SourceManager sources;
  for (const auto& [name, content] : request.includes) {
    sources.register_file(name, content);
  }
  if (!request.base_directory.empty()) {
    sources.set_base_directory(request.base_directory);
  }

  std::shared_ptr<const TreeArtifact> tree_artifact;
  if (store != nullptr) {
    tree_artifact =
        store->tree(request.source, request.path, sources,
                    &out.trace.tree_cache_hit);
  } else {
    auto artifact = std::make_shared<TreeArtifact>();
    support::DiagnosticEngine diags;
    auto parsed = dts::parse_dts(request.source, request.path, sources, diags);
    artifact->tree = std::move(parsed);
    artifact->diagnostics_text = diags.render();
    artifact->parse_errors = artifact->tree == nullptr || diags.has_errors();
    tree_artifact = artifact;
  }
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
  schema::SchemaSet schemas;
  if (request.syntax) {
    if (!request.schemas_text.empty()) {
      support::DiagnosticEngine diags;
      schema::load_schema_stream(request.schemas_text, schemas, diags);
      if (diags.has_errors()) {
        out.error_text += diags.render();
        out.exit_code = 2;
        return out;
      }
    } else {
      schemas = schema::builtin_schemas();
    }
  }

  options.schemas = &schemas;
  const uint64_t options_key =
      key_then_clamp(options, request.schemas_text, deadline);

  std::shared_ptr<const CheckArtifact> verdict;
  if (store != nullptr) {
    // tree_artifact->key is include-aware (see TreeArtifact::key): an
    // edited .dtsi re-parses the tree *and* lands here as a new verdict key.
    const uint64_t key = fnv_combine(options_key, tree_artifact->key);
    verdict = store->unit_check(
        key,
        [&]() {
          // The device graph is its own keyed artifact (option-independent),
          // fetched only when the verdict actually rebuilds — a cache-hit
          // request never builds a graph.
          std::shared_ptr<const checkers::graph::DeviceGraph> graph;
          if (request.graph) {
            graph = store->graph(tree_artifact->key, tree_artifact->tree)
                        ->graph;
          }
          const checkers::BatteryResult checked = checkers::run_battery(
              *tree_artifact->tree, options, std::move(graph));
          return CheckArtifact{checked.counters, key, checked.all()};
        },
        &out.trace.check_cache_hit);
  } else {
    const checkers::BatteryResult checked =
        checkers::run_battery(*tree_artifact->tree, options);
    verdict = std::make_shared<const CheckArtifact>(
        CheckArtifact{checked.counters, 0, checked.all()});
  }

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

}  // namespace llhsc::server
