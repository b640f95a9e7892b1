#include "obs/summary.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/json.hpp"

namespace llhsc::obs {

namespace {

constexpr char kSep = '\x1f';
constexpr std::string_view kStagePrefix = "stage.";

uint64_t non_negative(int64_t v) {
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

std::string format_ms(double ms) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << ms;
  return os.str();
}

}  // namespace

std::string Summary::key(std::string_view unit, std::string_view scope,
                         std::string_view name) {
  std::string k;
  k.reserve(unit.size() + scope.size() + name.size() + 2);
  k.append(unit);
  k.push_back(kSep);
  k.append(scope);
  k.push_back(kSep);
  k.append(name);
  return k;
}

int64_t Summary::scoped(std::string_view scope, std::string_view name) const {
  int64_t total = 0;
  for (const auto& [k, v] : scoped_counters) {
    const size_t first = k.find(kSep);
    const size_t second = k.find(kSep, first + 1);
    std::string_view key_view(k);
    if (key_view.substr(first + 1, second - first - 1) == scope &&
        key_view.substr(second + 1) == name) {
      total += v;
    }
  }
  return total;
}

int64_t Summary::counter(std::string_view name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Summary reduce(const std::vector<Event>& events) {
  Summary out;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kCounter) {
      out.counters[e.name] += e.delta;
      out.scoped_counters[Summary::key(e.unit, e.scope, e.name)] += e.delta;
      continue;
    }
    if (e.category == "stage" && e.name.starts_with(kStagePrefix)) {
      StageSummary row;
      row.unit = e.unit;
      row.stage = e.name.substr(kStagePrefix.size());
      row.wall_ms = static_cast<double>(e.dur_us) / 1000.0;
      out.stages.push_back(std::move(row));
    }
  }
  for (StageSummary& row : out.stages) {
    auto total = [&](const char* name) {
      auto it = out.scoped_counters.find(Summary::key(row.unit, row.stage, name));
      return it == out.scoped_counters.end() ? int64_t{0} : it->second;
    };
    row.findings = static_cast<size_t>(non_negative(total("stage.findings")));
    row.solver_checks = non_negative(total("solver.checks"));
    row.queries_issued = non_negative(total("planner.queries_issued"));
    row.queries_pruned = non_negative(total("planner.queries_pruned"));
    row.cache_hits = non_negative(total("planner.cache_hits"));
    row.cache_errors = non_negative(total("planner.cache_errors"));
  }
  return out;
}

StageSummary total(const std::vector<StageSummary>& rows) {
  StageSummary sum;
  for (const StageSummary& row : rows) {
    sum.wall_ms += row.wall_ms;
    sum.findings += row.findings;
    sum.solver_checks += row.solver_checks;
    sum.queries_issued += row.queries_issued;
    sum.queries_pruned += row.queries_pruned;
    sum.cache_hits += row.cache_hits;
    sum.cache_errors += row.cache_errors;
  }
  return sum;
}

std::string stages_json(const std::vector<StageSummary>& rows, unsigned jobs,
                        double total_ms) {
  using support::Json;
  const StageSummary sum = total(rows);
  Json doc = Json::object();
  doc.set("schema_version", Json::integer(1));
  doc.set("jobs", Json::unsigned_integer(jobs));
  doc.set("total_ms", Json::number(total_ms));
  // No run stops early; the key stays for schema_version 1 readers.
  doc.set("complete", Json::boolean(true));
  doc.set("solver_checks", Json::unsigned_integer(sum.solver_checks));
  doc.set("queries_issued", Json::unsigned_integer(sum.queries_issued));
  doc.set("queries_pruned", Json::unsigned_integer(sum.queries_pruned));
  doc.set("cache_hits", Json::unsigned_integer(sum.cache_hits));
  doc.set("cache_errors", Json::unsigned_integer(sum.cache_errors));
  doc.set("findings", Json::unsigned_integer(sum.findings));
  Json stage_rows = Json::array();
  for (const StageSummary& s : rows) {
    Json row = Json::object();
    row.set("unit", Json::string(s.unit));
    row.set("stage", Json::string(s.stage));
    row.set("wall_ms", Json::number(s.wall_ms));
    row.set("solver_checks", Json::unsigned_integer(s.solver_checks));
    row.set("queries_issued", Json::unsigned_integer(s.queries_issued));
    row.set("queries_pruned", Json::unsigned_integer(s.queries_pruned));
    row.set("cache_hits", Json::unsigned_integer(s.cache_hits));
    row.set("cache_errors", Json::unsigned_integer(s.cache_errors));
    row.set("findings", Json::unsigned_integer(s.findings));
    stage_rows.push(std::move(row));
  }
  doc.set("stages", std::move(stage_rows));
  return doc.dump(Json::Style::kPretty) + "\n";
}

std::string stages_table(const std::vector<StageSummary>& rows, unsigned jobs,
                         double total_ms) {
  size_t unit_w = 4, stage_w = 5;
  for (const StageSummary& s : rows) {
    unit_w = std::max(unit_w, s.unit.size());
    stage_w = std::max(stage_w, s.stage.size());
  }
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(unit_w)) << "unit" << "  "
     << std::setw(static_cast<int>(stage_w)) << "stage" << "  "
     << std::right << std::setw(10) << "wall_ms" << "  " << std::setw(7)
     << "checks" << "  " << std::setw(7) << "issued" << "  " << std::setw(7)
     << "pruned" << "  " << std::setw(7) << "cached" << "  " << std::setw(8)
     << "findings" << '\n';
  for (const StageSummary& s : rows) {
    os << std::left << std::setw(static_cast<int>(unit_w)) << s.unit << "  "
       << std::setw(static_cast<int>(stage_w)) << s.stage << "  "
       << std::right << std::setw(10) << format_ms(s.wall_ms) << "  "
       << std::setw(7) << s.solver_checks << "  " << std::setw(7)
       << s.queries_issued << "  " << std::setw(7) << s.queries_pruned
       << "  " << std::setw(7) << s.cache_hits << "  " << std::setw(8)
       << s.findings << '\n';
  }
  const StageSummary sum = total(rows);
  os << "total " << format_ms(total_ms) << " ms, " << sum.solver_checks
     << " solver checks, " << sum.queries_issued << " issued, "
     << sum.queries_pruned << " pruned, " << sum.cache_hits
     << " cache hits, ";
  if (sum.cache_errors > 0) os << sum.cache_errors << " cache errors, ";
  os << sum.findings << " findings, jobs=" << jobs << '\n';
  return os.str();
}

}  // namespace llhsc::obs
