// The two contracts docs/observability.md promises: (1) the aggregated
// summary is exactly a reduction of the raw event stream (so every numeric
// surface — --stats, --trace-json, the daemon stats reply — agrees with the
// profile by construction), and (2) the Chrome-trace export has the stable
// shape Perfetto expects.
#include "obs/obs.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/chrome_trace.hpp"
#include "obs/summary.hpp"
#include "server/check_service.hpp"
#include "support/json.hpp"

namespace llhsc::obs {
namespace {

using support::Json;

/// A deterministic-shape stream: two stage spans in two units, counters
/// attributed to each, plus an unscoped counter and a zero-information
/// no-op. Timing values vary run to run; names/attribution do not.
std::vector<Event> synthetic_stream() {
  TraceSink sink;
  {
    ScopedSink guard(&sink);
    {
      ScopedUnit unit("vm1");
      ScopedScope scope("semantic");
      Span span("stage.semantic", "stage");
      count("solver.checks", "solver", 3);
      count("planner.queries_issued", "planner", 2);
      count("planner.queries_pruned", "planner", 5);
      count("stage.findings", "stage", 1);
    }
    {
      ScopedUnit unit("vm2");
      ScopedScope scope("semantic");
      Span span("stage.semantic", "stage");
      count("solver.checks", "solver", 4);
      count("planner.cache_hits", "planner", 2);
      count("stage.findings", "stage", 0);  // zero delta: must be dropped
    }
    count("qcache.hit", "qcache", 7);  // ambient (no unit/scope)
  }
  return sink.take();
}

TEST(Summary, EqualsManualReductionOfRawStream) {
  const std::vector<Event> events = synthetic_stream();
  ASSERT_FALSE(events.empty());
  const Summary summary = reduce(events);

  // Re-derive every total straight from the raw events.
  std::map<std::string, int64_t> totals;
  std::map<std::string, int64_t> scoped;
  for (const Event& e : events) {
    if (e.kind != Event::Kind::kCounter) continue;
    totals[e.name] += e.delta;
    scoped[Summary::key(e.unit, e.scope, e.name)] += e.delta;
  }
  for (const auto& [name, total] : totals) {
    EXPECT_EQ(summary.counter(name), total) << name;
  }
  EXPECT_EQ(summary.counters.size(), totals.size());
  for (const auto& [key, total] : scoped) {
    auto it = summary.scoped_counters.find(key);
    ASSERT_NE(it, summary.scoped_counters.end());
    EXPECT_EQ(it->second, total);
  }
  EXPECT_EQ(summary.scoped_counters.size(), scoped.size());

  // scoped() sums across units within a scope.
  EXPECT_EQ(summary.scoped("semantic", "solver.checks"), 7);
  EXPECT_EQ(summary.scoped("semantic", "planner.queries_issued"), 2);
  EXPECT_EQ(summary.scoped("semantic", "planner.queries_pruned"), 5);
  EXPECT_EQ(summary.scoped("semantic", "planner.cache_hits"), 2);
  EXPECT_EQ(summary.counter("qcache.hit"), 7);
  // The zero delta carried no information and was never recorded.
  EXPECT_EQ(summary.scoped("semantic", "stage.findings"), 1);

  // Stage rows: one per (unit, stage) span, in stream order, with the
  // scope's counters attributed to the row.
  ASSERT_EQ(summary.stages.size(), 2u);
  EXPECT_EQ(summary.stages[0].unit, "vm1");
  EXPECT_EQ(summary.stages[0].stage, "semantic");
  EXPECT_EQ(summary.stages[0].solver_checks, 3u);
  EXPECT_EQ(summary.stages[0].queries_issued, 2u);
  EXPECT_EQ(summary.stages[0].queries_pruned, 5u);
  EXPECT_EQ(summary.stages[0].findings, 1u);
  EXPECT_EQ(summary.stages[1].unit, "vm2");
  EXPECT_EQ(summary.stages[1].solver_checks, 4u);
  EXPECT_EQ(summary.stages[1].cache_hits, 2u);
  EXPECT_EQ(summary.stages[1].findings, 0u);
}

TEST(Summary, CounterEventsIgnoreTheSpanKillSwitch) {
  TraceSink sink;
  set_enabled(false);
  {
    ScopedSink guard(&sink);
    Span span("stage.lint", "stage");
    EXPECT_FALSE(span.active());
    count("stage.findings", "stage", 2);
  }
  set_enabled(true);
  const std::vector<Event> events = sink.take();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Event::Kind::kCounter);
  EXPECT_EQ(reduce(events).counter("stage.findings"), 2);
}

TEST(Summary, EventsMergeSortedByTimeThenSequence) {
  TraceSink sink;
  {
    ScopedSink guard(&sink);
    for (int i = 0; i < 5; ++i) count("qcache.miss", "qcache", 1);
  }
  const std::vector<Event> events = sink.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_TRUE(events[i - 1].ts_us < events[i].ts_us ||
                (events[i - 1].ts_us == events[i].ts_us &&
                 events[i - 1].seq < events[i].seq));
  }
}

TEST(ChromeTrace, ExportHasThePerfettoShape) {
  const std::vector<Event> events = synthetic_stream();
  const std::string text = chrome_trace_json(events);
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->at("schema_version").as_int(), 1);
  EXPECT_EQ(doc->at("displayTimeUnit").as_string(), "ms");

  const Json& trace_events = doc->at("traceEvents");
  ASSERT_EQ(trace_events.items().size(), events.size());
  uint64_t prev_ts = 0;
  size_t spans = 0, counters = 0;
  for (const Json& e : trace_events.items()) {
    // The stable key set Perfetto keys on.
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_FALSE(e.at("cat").as_string().empty());
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_GE(e.at("tid").as_int(), 0);
    const uint64_t ts = e.at("ts").as_uint();
    EXPECT_GE(ts, prev_ts);  // sorted stream -> monotone ts
    prev_ts = ts;
    const std::string ph = e.at("ph").as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("dur").as_uint(), 0u);
    } else if (ph == "C") {
      ++counters;
      // "C" events carry the value keyed by the counter name.
      EXPECT_NE(e.at("args").dump().find(e.at("name").as_string()),
                std::string::npos);
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(counters, events.size() - 2u);
}

TEST(ChromeTrace, GoldenEventNamesFromARealCheck) {
  api::CheckRequest request;
  request.path = "golden.dts";
  // Two overlapping regions: the pair survives the planner's structural
  // prefilter, so the solver genuinely runs and the stream carries
  // solver.check spans (a disjoint layout would prune everything).
  request.source = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    mmio@40800000 { reg = <0x40800000 0x1000000>; };
};
)";
  TraceSink sink;
  api::CheckResult outcome;
  {
    ScopedSink guard(&sink);
    outcome = api::run_check(request);
  }
  ASSERT_EQ(outcome.exit_code, 1) << outcome.error_text;  // the overlap
  const std::vector<Event> events = sink.take();

  // The stage spans of an all-stages check, in pipeline order.
  std::vector<std::string> stage_spans;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kSpan && e.category == "stage") {
      stage_spans.push_back(e.name);
    }
  }
  const std::vector<std::string> expected = {
      "stage.lint", "stage.crossref", "stage.graph", "stage.syntactic",
      "stage.semantic"};
  EXPECT_EQ(stage_spans, expected);

  // The single source of truth: the outcome's trace counters ARE the
  // reduction of this very stream — asserted, not documented.
  const Summary summary = reduce(events);
  EXPECT_EQ(outcome.trace.solver_checks,
            static_cast<uint64_t>(summary.scoped("semantic", "solver.checks")));
  EXPECT_EQ(outcome.trace.queries_issued,
            static_cast<uint64_t>(
                summary.scoped("semantic", "planner.queries_issued")));
  EXPECT_EQ(outcome.trace.queries_pruned,
            static_cast<uint64_t>(
                summary.scoped("semantic", "planner.queries_pruned")));
  EXPECT_EQ(outcome.trace.cache_hits,
            static_cast<uint64_t>(
                summary.scoped("semantic", "planner.cache_hits")));
  EXPECT_GT(outcome.trace.solver_checks, 0u);

  // And the export of that stream is loadable JSON with the span present.
  const auto doc = Json::parse(chrome_trace_json(events));
  ASSERT_TRUE(doc.has_value());
  bool saw_semantic = false;
  for (const Json& e : doc->at("traceEvents").items()) {
    if (e.at("name").as_string() == "stage.semantic") saw_semantic = true;
  }
  EXPECT_TRUE(saw_semantic);
}

}  // namespace
}  // namespace llhsc::obs
