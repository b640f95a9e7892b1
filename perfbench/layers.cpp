// perfbench_layers — the traced pass of the llhsc benchmark. It calls each
// layer's public functions directly, in the order llhsc's own check path
// calls them, times every call from outside, and asserts that the replay
// reproduces the findings of the in-process api::run_check (or
// api::run_session) on every input, so the per-layer numbers describe the
// same program the end-to-end numbers do.
//
//   perfbench_layers boards  <seconds> <cache-root> <dir> <file.dts>...
//   perfbench_layers lifted  <seconds> <out-dir> <dir> <name>...
//   perfbench_layers session <seconds> <cache-root> <requests.jsonl>
//
// Each mode loops over its inputs in whole passes until <seconds> elapse
// (at least one pass) and prints one JSON object: per-operation means of
// every layer metric, the operation count, and the number of replays that
// disagreed with the in-process API ("mismatches", which must be 0).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/llhsc.hpp"
#include "checkers/crossref/context.hpp"
#include "checkers/crossref/rules.hpp"
#include "checkers/graph/graph.hpp"
#include "checkers/graph/rules.hpp"
#include "checkers/lint.hpp"
#include "checkers/report.hpp"
#include "checkers/semantic.hpp"
#include "checkers/syntactic.hpp"
#include "delta/delta.hpp"
#include "dts/parser.hpp"
#include "feature/text_format.hpp"
#include "lift/lift.hpp"
#include "schema/builtin_schemas.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace {

using namespace llhsc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using support::Json;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Runs `fn`, adds its wall time in ms to metric `name`, returns its value.
template <class F>
auto timed(std::map<std::string, double>& sums, const std::string& name,
           F&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto value = fn();
  sums[name] += ms_since(t0);
  return value;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

size_t count_nodes(const dts::Tree& tree) {
  size_t n = 0;
  tree.visit([&](const std::string&, const dts::Node&) { ++n; });
  return n - 1;  // the root is not a device node
}

/// Accumulated layer metrics over a replay: sums divided by `ops` on output.
struct Report {
  std::map<std::string, double> sums;
  uint64_t ops = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> notes;

  void print(std::ostream& os) const {
    Json metrics = Json::object();
    for (const auto& [name, sum] : sums) {
      metrics.set(name, Json::number(ops == 0 ? 0.0 : sum / double(ops)));
    }
    Json notes_json = Json::array();
    for (const std::string& n : notes) notes_json.push(Json::string(n));
    Json out = Json::object();
    out.set("ops", Json::unsigned_integer(ops));
    out.set("mismatches", Json::unsigned_integer(mismatches));
    out.set("metrics", std::move(metrics));
    out.set("notes", std::move(notes_json));
    os << out.dump() << "\n";
  }
};

/// The check battery of server::run_checkers, one public call per layer:
/// lint, cross-reference (context, then the rule registry), device graph
/// (build, then rules), syntactic, semantic. `crossref` false is the
/// session unit battery, whose graph builds its own context.
checkers::Findings replay_battery(const dts::Tree& tree,
                                  const schema::SchemaSet& schemas,
                                  const std::string& cache_dir, bool crossref,
                                  Report& r) {
  auto& s = r.sums;
  checkers::Findings out;
  auto append = [&](const checkers::Findings& f) {
    out.insert(out.end(), f.begin(), f.end());
  };
  append(timed(s, "checkers.lint_ms",
               [&] { return checkers::LintChecker().check(tree); }));
  if (crossref) {
    const auto ctx = timed(s, "checkers.crossref_context_ms", [&] {
      return std::make_unique<checkers::crossref::AnalysisContext>(tree);
    });
    append(timed(s, "checkers.crossref_rules_ms", [&] {
      return checkers::crossref::CrossRefChecker().check(*ctx);
    }));
    const auto graph = timed(s, "checkers.graph_build_ms", [&] {
      return checkers::graph::DeviceGraph::build(*ctx);
    });
    append(timed(s, "checkers.graph_rules_ms", [&] {
      return checkers::graph::GraphChecker().check(graph);
    }));
  } else {
    const auto graph = timed(s, "checkers.graph_build_ms", [&] {
      return checkers::graph::DeviceGraph::build(tree);
    });
    append(timed(s, "checkers.graph_rules_ms", [&] {
      return checkers::graph::GraphChecker().check(graph);
    }));
  }
  {
    checkers::SyntacticChecker syn(schemas, smt::Backend::kBuiltin);
    append(timed(s, "checkers.syntactic_ms", [&] { return syn.check(tree); }));
    s["checkers.syntactic_solver_checks"] += double(syn.solver_checks());
  }
  {
    checkers::SemanticOptions options;
    options.cache_dir = cache_dir;
    checkers::SemanticChecker sem(smt::Backend::kBuiltin, options);
    append(timed(s, "checkers.semantic_ms", [&] { return sem.check(tree); }));
    const smt::QueryPlanStats& plan = sem.plan_stats();
    s["checkers.semantic_solver_checks"] += double(sem.solver_checks());
    s["checkers.semantic_queries_pruned"] += double(plan.queries_pruned);
    const double answered = double(plan.cache_hits + plan.queries_issued);
    s["checkers.semantic_cache_hit_ratio"] +=
        answered == 0 ? 0.0 : double(plan.cache_hits) / answered;
  }
  return out;
}

/// Layer replay of one `llhsc check --format json`: schema load, parse with
/// includes, the battery, the JSON writer. Returns the report bytes.
std::string replay_check(const std::string& path, const std::string& source,
                         const dts::SourceManager& sources,
                         const std::string& cache_dir, Report& r) {
  auto& s = r.sums;
  const schema::SchemaSet schemas = timed(
      s, "schema.load_ms", [] { return schema::builtin_schemas(); });
  support::DiagnosticEngine diags;
  const auto tree = timed(s, "dts.parse_ms", [&] {
    return dts::parse_dts(source, path, sources, diags);
  });
  if (tree == nullptr || diags.has_errors()) return diags.render();
  s["dts.nodes"] += double(count_nodes(*tree));
  const checkers::Findings findings =
      replay_battery(*tree, schemas, cache_dir, true, r);
  return timed(s, "checkers.render_ms",
               [&] { return checkers::report_json(findings) + "\n"; });
}

bool out_of_time(Clock::time_point start, double seconds) {
  return ms_since(start) >= seconds * 1000.0;
}

/// One-shot boards, cold: every check gets fresh query-cache directories.
int run_boards(double seconds, const fs::path& cache_root,
               const fs::path& dir, const std::vector<std::string>& files) {
  Report r;
  const Clock::time_point start = Clock::now();
  uint64_t n = 0;
  do {
    for (const std::string& file : files) {
      api::CheckRequest req;
      req.path = file;
      req.source = read_file(dir / file);
      req.base_directory = dir.string();
      req.format = "json";
      const fs::path api_cache = cache_root / ("api" + std::to_string(n));
      const fs::path layer_cache = cache_root / ("layers" + std::to_string(n));
      ++n;
      req.cache_dir = api_cache.string();
      const Clock::time_point api_start = Clock::now();
      const api::CheckResult result = api::run_check(req);
      const double api_ms = ms_since(api_start);
      r.sums["api.run_check_ms"] += api_ms;

      dts::SourceManager sources;
      sources.set_base_directory(dir.string());
      Report layers;
      const std::string replay = replay_check(file, req.source, sources,
                                              layer_cache.string(), layers);
      double layered = 0;
      for (const auto& [name, sum] : layers.sums) {
        r.sums[name] += sum;
        if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
          layered += sum;
        }
      }
      r.sums["api.unattributed_ms"] += api_ms - layered;
      if (replay != result.output) {
        ++r.mismatches;
        r.notes.push_back("replay differs from api::run_check on " + file);
      }
      ++r.ops;
      fs::remove_all(api_cache);
      fs::remove_all(layer_cache);
    }
  } while (!out_of_time(start, seconds));
  r.print(std::cout);
  return 0;
}

/// Lifted families: the `llhsc check --lifted` path, layer by layer. The
/// rendered report lands in <out-dir>/<name>.replay.txt for a byte
/// comparison against the CLI's stdout.
int run_lifted(double seconds, const fs::path& out_dir, const fs::path& dir,
               const std::vector<std::string>& names) {
  Report r;
  auto& s = r.sums;
  const Clock::time_point start = Clock::now();
  do {
    for (const std::string& name : names) {
      const Clock::time_point op = Clock::now();
      const std::string core_path = name + ".dts";
      const std::string core_text = read_file(dir / core_path);
      const std::string delta_text = read_file(dir / (name + ".deltas"));
      const std::string model_text = read_file(dir / (name + ".fm"));
      support::DiagnosticEngine diags;
      dts::SourceManager sources;
      sources.set_base_directory(dir.string());
      auto core = timed(s, "dts.parse_ms", [&] {
        return dts::parse_dts(core_text, core_path, sources, diags);
      });
      auto deltas = timed(s, "delta.parse_ms", [&] {
        return delta::parse_deltas(delta_text, name + ".deltas", diags);
      });
      auto model = feature::parse_model(model_text, name + ".fm", diags);
      if (core == nullptr || !model || diags.has_errors()) {
        ++r.mismatches;
        r.notes.push_back("cannot parse family " + name + ": " +
                          diags.render());
        continue;
      }
      s["dts.nodes"] += double(count_nodes(*core));
      delta::ProductLine line(std::move(core), std::move(deltas));
      lift::LiftOptions opts;
      const lift::LiftedResult result = timed(s, "lift.check_ms", [&] {
        return lift::check_family(line, *model, opts, diags);
      });
      s["lift.components"] += double(result.components);
      s["lift.patterns"] += double(result.patterns);
      s["lift.obligations"] += double(result.obligations);
      s["lift.solver_checks"] += double(result.solver_checks);
      const std::string rendered = timed(s, "checkers.render_ms", [&] {
        return checkers::render(lift::flatten(result));
      });
      s["lifted.inprocess_ms"] += ms_since(op);
      std::ofstream(out_dir / (name + ".replay.txt"), std::ios::binary)
          << rendered;
      ++r.ops;
    }
  } while (!out_of_time(start, seconds));
  r.print(std::cout);
  return 0;
}

api::SessionRequest session_from(const Json& p) {
  api::SessionRequest r;
  r.core_source = p.at("core_source").as_string();
  r.core_name = p.at("core_name").as_string();
  r.deltas_source = p.at("deltas_source").as_string();
  r.deltas_name = p.at("deltas_name").as_string();
  r.model_source = p.at("model_source").as_string();
  r.model_name = p.at("model_name").as_string();
  for (const auto& [name, content] : p.at("includes").fields()) {
    r.includes.emplace_back(name, content.as_string());
  }
  for (const Json& prod : p.at("products").items()) {
    api::SessionProduct product;
    product.name = prod.at("name").as_string();
    for (const Json& f : prod.at("features").items()) {
      product.features.insert(f.as_string());
    }
    r.products.push_back(std::move(product));
  }
  r.cache_dir = p.at("cache_dir").as_string();
  return r;
}

api::CheckRequest check_from(const Json& p) {
  api::CheckRequest r;
  r.path = p.at("path").as_string();
  r.source = p.at("source").as_string();
  for (const auto& [name, content] : p.at("includes").fields()) {
    r.includes.emplace_back(name, content.as_string());
  }
  r.format = p.at("format").as_string();
  r.cache_dir = p.at("cache_dir").as_string();
  return r;
}

/// Daemon traffic of one session-edits connection, replayed in-process on
/// one CheckStore. Each line of the file is {"request": <wire request>,
/// "edited": <product name or "">, "timed": <bool>}; the wire cache_dir is
/// replaced by a fresh directory under <cache-root> so the replay starts as
/// cold as the daemon did.
int run_session(double seconds, const fs::path& cache_root,
                const fs::path& requests_path) {
  std::vector<Json> lines;
  {
    std::ifstream in(requests_path);
    std::string line;
    while (std::getline(in, line)) {
      if (auto j = Json::parse(line)) lines.push_back(std::move(*j));
    }
  }
  Report r;
  auto& s = r.sums;
  const Clock::time_point start = Clock::now();
  uint64_t pass = 0;
  do {
    // A fresh store and cache per pass: every pass replays the same
    // hit/miss sequence the daemon served.
    const fs::path cache = cache_root / ("pass" + std::to_string(pass++));
    api::CheckStore store;
    std::set<std::string> seen_checks;
    std::map<std::string, std::unique_ptr<dts::Tree>> cores;
    for (const Json& line : lines) {
      const Json& wire = line.at("request");
      // Set-up requests (priming) run but are not timed, as on the wire.
      auto note_request = [&](Clock::time_point t0) {
        ++r.ops;
        if (!line.at("timed").as_bool(true)) return;
        s["server.inprocess_ms"] += ms_since(t0);
        s["server.timed_ops"] += 1;
      };
      const std::string method = wire.at("method").as_string();
      if (method == "session") {
        api::SessionRequest req = session_from(wire.at("params"));
        req.cache_dir = cache.string();
        const Clock::time_point t0 = Clock::now();
        const api::SessionResult result = api::run_session(req, store);
        note_request(t0);
        const std::string edited = line.at("edited").as_string();
        if (edited.empty()) continue;  // priming request: not an edit
        s["session.edits"] += 1;
        // The daemon's per-edit work: schema load, delta parse, derive of
        // the one affected product, its unit battery (crossref off).
        const schema::SchemaSet schemas = timed(
            s, "schema.load_ms", [] { return schema::builtin_schemas(); });
        support::DiagnosticEngine diags;
        auto& core = cores[req.core_source];
        if (core == nullptr) {
          dts::SourceManager sources;
          for (const auto& [name, content] : req.includes) {
            sources.register_file(name, content);
          }
          core = dts::parse_dts(req.core_source, req.core_name, sources, diags);
        }
        auto deltas = timed(s, "delta.parse_ms", [&] {
          return delta::parse_deltas(req.deltas_source, req.deltas_name, diags);
        });
        const delta::ProductLine pl(core->clone(), std::move(deltas));
        const api::SessionProduct* product = nullptr;
        for (const api::SessionProduct& p : req.products) {
          if (p.name == edited) product = &p;
        }
        if (product == nullptr) {
          ++r.mismatches;
          r.notes.push_back("edited product " + edited + " not in request");
          continue;
        }
        auto tree = timed(s, "delta.derive_ms", [&] {
          return pl.derive(product->features, diags);
        });
        if (tree == nullptr) {
          ++r.mismatches;
          r.notes.push_back("cannot derive " + edited + ": " + diags.render());
          continue;
        }
        checkers::Findings findings =
            replay_battery(*tree, schemas, cache.string(), false, r);
        checkers::sort_by_location(findings);
        const std::string report = checkers::render(findings);
        bool matched = false;
        for (const api::SessionUnitResult& u : result.units) {
          if (u.name == edited) matched = u.report == report;
        }
        if (!matched) {
          ++r.mismatches;
          r.notes.push_back("replay differs from api::run_session on " +
                            edited);
        }
      } else {
        api::CheckRequest req = check_from(wire.at("params"));
        req.cache_dir = cache.string();
        const Clock::time_point t0 = Clock::now();
        const api::CheckResult result = api::run_check(req, store);
        note_request(t0);
        if (!seen_checks.insert(req.source).second) continue;  // store hit
        s["session.check_misses"] += 1;
        dts::SourceManager sources;
        for (const auto& [name, content] : req.includes) {
          sources.register_file(name, content);
        }
        const std::string replay =
            replay_check(req.path, req.source, sources, cache.string(), r);
        if (replay != result.output) {
          ++r.mismatches;
          r.notes.push_back("replay differs from api::run_check on " +
                            req.path);
        }
      }
    }
    fs::remove_all(cache);
  } while (!out_of_time(start, seconds));
  r.print(std::cout);
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_layers boards <seconds> <cache-root> <dir> "
               "<file.dts>...\n"
               "       perfbench_layers lifted <seconds> <out-dir> <dir> "
               "<name>...\n"
               "       perfbench_layers session <seconds> <cache-root> "
               "<requests.jsonl>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string mode = argv[1];
  const double seconds = std::stod(argv[2]);
  std::vector<std::string> rest(argv + 5, argv + argc);
  if (mode == "boards") return run_boards(seconds, argv[3], argv[4], rest);
  if (mode == "lifted") return run_lifted(seconds, argv[3], argv[4], rest);
  if (mode == "session" && argc == 5) {
    return run_session(seconds, argv[3], argv[4]);
  }
  return usage();
}
