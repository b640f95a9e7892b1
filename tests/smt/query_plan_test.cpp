// Query planner + persistent query cache tests. The planner's contract is
// verdict transparency: batched guarded solving and cache replay must agree
// with a plain push/add/check/pop sequence on the same formulas, witness
// values included.
#include "smt/query_plan.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "smt/query_cache.hpp"

namespace llhsc::smt {
namespace {

/// One concrete "does x fall into both intervals" query — the shape the
/// semantic checker builds — constructed inside `solver`'s arenas.
struct IntervalQuery {
  std::vector<logic::Formula> fs;
  logic::BvTerm x;
};

IntervalQuery make_interval_query(Solver& solver, uint64_t base_a,
                                  uint64_t size_a, uint64_t base_b,
                                  uint64_t size_b) {
  logic::BvArena& bv = solver.bitvectors();
  IntervalQuery q;
  q.x = bv.bv_var("x", 64);
  auto in_range = [&](uint64_t base, uint64_t size) {
    logic::BvTerm lo = bv.bv_const(base, 64);
    logic::BvTerm hi = bv.bv_const(base + size, 64);
    q.fs.push_back(bv.uge(q.x, lo));
    q.fs.push_back(bv.ult(q.x, hi));
  };
  in_range(base_a, size_a);
  in_range(base_b, size_b);
  return q;
}

std::string fresh_cache_dir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/llhsc-qp-" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// -- canonicalisation --

TEST(QueryCanonicalText, StableAcrossArenaIdDrift) {
  // Solver B builds unrelated terms first, shifting every arena id; the
  // canonical text must not notice.
  Solver a(Backend::kBuiltin);
  Solver b(Backend::kBuiltin);
  b.bool_var("noise");
  b.bitvectors().bv_var("noise_bv", 32);
  b.add(b.bitvectors().eq(b.bitvectors().bv_var("m", 16),
                          b.bitvectors().bv_const(7, 16)));

  IntervalQuery qa = make_interval_query(a, 0x1000, 0x100, 0x1080, 0x100);
  IntervalQuery qb = make_interval_query(b, 0x1000, 0x100, 0x1080, 0x100);
  std::string ta =
      canonical_query_text(a.formulas(), a.bitvectors(), qa.fs, qa.x);
  std::string tb =
      canonical_query_text(b.formulas(), b.bitvectors(), qb.fs, qb.x);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(query_fingerprint(ta), query_fingerprint(tb));
}

TEST(QueryCanonicalText, IgnoresVariableNames) {
  Solver a(Backend::kBuiltin);
  Solver b(Backend::kBuiltin);
  logic::BvTerm xa = a.bitvectors().bv_var("ov0.x", 64);
  logic::BvTerm xb = b.bitvectors().bv_var("completely.different", 64);
  std::vector<logic::Formula> fa{
      a.bitvectors().eq(xa, a.bitvectors().bv_const(5, 64))};
  std::vector<logic::Formula> fb{
      b.bitvectors().eq(xb, b.bitvectors().bv_const(5, 64))};
  EXPECT_EQ(canonical_query_text(a.formulas(), a.bitvectors(), fa, xa),
            canonical_query_text(b.formulas(), b.bitvectors(), fb, xb));
}

TEST(QueryCanonicalText, DistinguishesDifferentQueries) {
  Solver s(Backend::kBuiltin);
  IntervalQuery q1 = make_interval_query(s, 0x1000, 0x100, 0x1080, 0x100);
  IntervalQuery q2 = make_interval_query(s, 0x1000, 0x100, 0x2000, 0x100);
  std::string t1 =
      canonical_query_text(s.formulas(), s.bitvectors(), q1.fs, q1.x);
  std::string t2 =
      canonical_query_text(s.formulas(), s.bitvectors(), q2.fs, q2.x);
  EXPECT_NE(t1, t2);
  EXPECT_NE(query_fingerprint(t1), query_fingerprint(t2));
}

TEST(QueryCanonicalText, WitnessTermChangesTheKey) {
  // Same formulas, different (or absent) witness term: the verdict is the
  // same but the stored witness is not, so the key must differ.
  Solver s(Backend::kBuiltin);
  IntervalQuery q = make_interval_query(s, 0x0, 0x10, 0x8, 0x10);
  std::string with =
      canonical_query_text(s.formulas(), s.bitvectors(), q.fs, q.x);
  std::string without =
      canonical_query_text(s.formulas(), s.bitvectors(), q.fs, {});
  EXPECT_NE(with, without);
}

// -- cache storage --

TEST(QueryCacheTest, RoundTripsEntries) {
  QueryCache cache(fresh_cache_dir("roundtrip"), Backend::kBuiltin);
  ASSERT_TRUE(cache.enabled());
  const std::string text = "llhsc test probe\n[eq t0 t1]\nw -\n";
  EXPECT_FALSE(cache.lookup(text).has_value());

  cache.store(text, {CheckResult::kSat, 0x1100});
  auto hit = cache.lookup(text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, CheckResult::kSat);
  EXPECT_EQ(hit->witness, 0x1100u);

  // A different probe is a miss even though the file layout is shared.
  EXPECT_FALSE(cache.lookup("something else\n").has_value());
}

TEST(QueryCacheTest, UnsatEntriesCarryNoWitness) {
  QueryCache cache(fresh_cache_dir("unsat"), Backend::kBuiltin);
  ASSERT_TRUE(cache.enabled());
  const std::string text = "probe unsat\n";
  cache.store(text, {CheckResult::kUnsat, 0});
  auto hit = cache.lookup(text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, CheckResult::kUnsat);
  EXPECT_EQ(hit->witness, 0u);
}

TEST(QueryCacheTest, BackendsUseDisjointNamespaces) {
  const std::string dir = fresh_cache_dir("backends");
  QueryCache builtin_cache(dir, Backend::kBuiltin);
  ASSERT_TRUE(builtin_cache.enabled());
  const std::string text = "shared probe\n";
  builtin_cache.store(text, {CheckResult::kSat, 42});

  QueryCache z3_cache(dir, Backend::kZ3);
  if (z3_cache.enabled()) {
    EXPECT_FALSE(z3_cache.lookup(text).has_value())
        << "a z3 cache must not replay builtin verdicts";
  }
}

TEST(QueryCacheTest, FingerprintCollisionFallsThroughToTheSolver) {
  // Forge a collision: plant a valid entry whose *file name* matches probe
  // B's 64-bit fingerprint but whose stored canonical text is probe A. The
  // collision guard must reject the replay (returning a miss, so the caller
  // falls through to the solver) and count it.
  const std::string dir = fresh_cache_dir("collision");
  QueryCache cache(dir, Backend::kBuiltin);
  ASSERT_TRUE(cache.enabled());
  const std::string text_a = "probe A\n[1 f0]\nw -\n";
  const std::string text_b = "probe B\n[2 f0]\nw -\n";
  ASSERT_NE(query_fingerprint(text_a), query_fingerprint(text_b));

  std::ostringstream name;
  name << std::hex << query_fingerprint(text_b);
  const std::string forged = dir + "/qc1-builtin/" + name.str() + ".qc";
  {
    std::ofstream out(forged, std::ios::binary);
    ASSERT_TRUE(out.good());
    out << "llhsc-qc 1 sat 42\n" << text_a;
  }

  obs::TraceSink sink;
  {
    obs::ScopedSink guard(&sink);
    EXPECT_FALSE(cache.lookup(text_b).has_value())
        << "a colliding entry must never replay the wrong verdict";
    // A properly-stored entry for the same text is a legitimate hit — the
    // guard only fires on content mismatch, not on every lookup.
    cache.store(text_a, {CheckResult::kSat, 42});
    auto hit = cache.lookup(text_a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, CheckResult::kSat);
  }
  int64_t collisions = 0;
  for (const obs::Event& e : sink.snapshot()) {
    if (e.kind == obs::Event::Kind::kCounter && e.name == "qcache.collisions") {
      collisions += e.delta;
    }
  }
  EXPECT_EQ(collisions, 1);
}

TEST(QueryCacheTest, MalformedHeaderIsAMiss) {
  // An entry is a hint from another run, never trusted input: a witness
  // that is not hex, does not fit 64 bits or is missing, and any trailing
  // field, must read as a miss (the caller falls through to the solver)
  // instead of throwing out of the lookup.
  const std::string dir = fresh_cache_dir("malformed");
  QueryCache cache(dir, Backend::kBuiltin);
  ASSERT_TRUE(cache.enabled());
  const std::string text = "probe malformed\n[1 f0]\nw t0\n";
  std::ostringstream name;
  name << std::hex << query_fingerprint(text);
  const std::string path = dir + "/qc1-builtin/" + name.str() + ".qc";
  auto plant = [&](const std::string& header) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << header << '\n' << text;
  };

  plant("llhsc-qc 1 sat ffffffffffffffff");
  auto hit = cache.lookup(text);
  ASSERT_TRUE(hit.has_value()) << "the well-formed control entry must hit";
  EXPECT_EQ(hit->witness, 0xffffffffffffffffull);

  for (const char* header :
       {"llhsc-qc 1 sat zz", "llhsc-qc 1 sat 1g", "llhsc-qc 1 sat -1",
        "llhsc-qc 1 sat 10000000000000000", "llhsc-qc 1 sat ",
        "llhsc-qc 1 sat", "llhsc-qc 1 unsat 0 extra", "llhsc-qc x sat 0",
        ""}) {
    plant(header);
    EXPECT_FALSE(cache.lookup(text).has_value()) << "header: " << header;
  }
}

TEST(QueryCacheTest, OpenSharesOneInstancePerDirectoryAndBackend) {
  const std::string dir = fresh_cache_dir("open");
  auto first = QueryCache::open(dir, Backend::kBuiltin);
  ASSERT_TRUE(first->enabled());
  EXPECT_EQ(QueryCache::open(dir, Backend::kBuiltin), first);
  auto z3 = QueryCache::open(dir, Backend::kZ3);
  EXPECT_NE(z3, first) << "each backend keeps its own namespace";

  // Concurrent opens (the daemon's in-process workers) share it too.
  std::vector<std::shared_ptr<const QueryCache>> seen(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back(
        [&, t] { seen[t] = QueryCache::open(dir, Backend::kBuiltin); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& cache : seen) EXPECT_EQ(cache, first);

  // Two planners on one directory read and write one cache.
  Solver s1(Backend::kBuiltin), s2(Backend::kBuiltin);
  QueryPlanner p1(s1, dir), p2(s2, dir);
  EXPECT_EQ(p1.cache(), first.get());
  EXPECT_EQ(p2.cache(), first.get());

  // A directory removed after the open is created again on the next open.
  std::filesystem::remove_all(dir);
  QueryPlanner p3(s1, dir);
  ASSERT_TRUE(p3.cache_enabled()) << p3.cache_error();
  EXPECT_TRUE(std::filesystem::is_directory(p3.cache()->directory()));
  const std::string text = "probe reopened\n";
  p3.cache()->store(text, {CheckResult::kUnsat, 0});
  EXPECT_TRUE(p3.cache()->lookup(text).has_value());
}

TEST(QueryCacheTest, EmptyDirectoryDisablesCache) {
  QueryCache cache("", Backend::kBuiltin);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.lookup("anything").has_value());
  cache.store("anything", {CheckResult::kSat, 1});  // must be a no-op
}

// -- the planner --

class QueryPlannerTest : public ::testing::TestWithParam<Backend> {};

TEST_P(QueryPlannerTest, AgreesWithPushPopOnMixedQueries) {
  Solver planned(GetParam());
  Solver reference(GetParam());
  QueryPlanner planner(planned, "");

  struct Case {
    uint64_t base_a, size_a, base_b, size_b;
  };
  // sat, unsat, sat, unsat — interleaved so a stale guard or leaked
  // conflict from a retired query would flip a later verdict.
  const Case cases[] = {
      {0x1000, 0x100, 0x1080, 0x100},  // overlap
      {0x1000, 0x100, 0x2000, 0x100},  // disjoint
      {0x0, 0x10, 0x8, 0x10},          // overlap at low addresses
      {0x5000, 0x1, 0x5001, 0x1},      // adjacent: no overlap
  };
  for (const Case& c : cases) {
    IntervalQuery pq =
        make_interval_query(planned, c.base_a, c.size_a, c.base_b, c.size_b);
    QueryPlanner::Outcome o = planner.check(pq.fs, pq.x);

    IntervalQuery rq =
        make_interval_query(reference, c.base_a, c.size_a, c.base_b, c.size_b);
    reference.push();
    for (logic::Formula f : rq.fs) reference.add(f);
    CheckResult want = reference.check();
    uint64_t want_witness =
        want == CheckResult::kSat ? reference.model_bv(rq.x) : 0;
    reference.pop();

    EXPECT_EQ(o.result, want);
    EXPECT_FALSE(o.from_cache);
    if (want == CheckResult::kSat) {
      // Without a pin the model is backend-specific; assert the witness is
      // a real point of the intersection instead of comparing values.
      EXPECT_GE(o.witness, std::max(c.base_a, c.base_b));
      EXPECT_LT(o.witness, std::min(c.base_a + c.size_a, c.base_b + c.size_b));
      EXPECT_GE(want_witness, std::max(c.base_a, c.base_b));
    }
  }
  EXPECT_EQ(planner.stats().queries_issued, 4u);
  EXPECT_EQ(planner.stats().cache_hits, 0u);
  EXPECT_EQ(planned.stats().checks, 4u)
      << "one check_assuming per query, no push/pop re-encoding";
}

TEST_P(QueryPlannerTest, NotePrunedOnlyTouchesTheCounter) {
  Solver s(GetParam());
  QueryPlanner planner(s, "");
  planner.note_pruned(7);
  planner.note_pruned(3);
  EXPECT_EQ(planner.stats().queries_pruned, 10u);
  EXPECT_EQ(planner.stats().queries_issued, 0u);
  EXPECT_EQ(s.stats().checks, 0u);
}

TEST_P(QueryPlannerTest, WarmCacheReplaysVerdictAndWitness) {
  const std::string dir =
      fresh_cache_dir(std::string("warm-") + std::string(to_string(GetParam())));
  struct Decision {
    CheckResult result;
    uint64_t witness;
    bool from_cache;
  };
  auto run = [&] {
    Solver s(GetParam());
    QueryPlanner planner(s, dir);
    EXPECT_TRUE(planner.cache_enabled());
    std::vector<Decision> out;
    // A pinned sat query (deterministic witness) and an unsat one.
    IntervalQuery sat_q = make_interval_query(s, 0x1000, 0x100, 0x1080, 0x100);
    logic::BvArena& bv = s.bitvectors();
    sat_q.fs.push_back(bv.eq(sat_q.x, bv.bv_const(0x1080, 64)));
    QueryPlanner::Outcome o1 = planner.check(sat_q.fs, sat_q.x);
    out.push_back({o1.result, o1.witness, o1.from_cache});
    IntervalQuery unsat_q = make_interval_query(s, 0x1000, 0x100, 0x2000, 0x100);
    QueryPlanner::Outcome o2 = planner.check(unsat_q.fs, unsat_q.x);
    out.push_back({o2.result, o2.witness, o2.from_cache});
    EXPECT_EQ(planner.stats().cache_hits + planner.stats().queries_issued, 2u);
    if (planner.stats().cache_hits == 2) {
      EXPECT_EQ(s.stats().checks, 0u)
          << "a fully warm planner must never touch the solver";
    }
    return out;
  };

  std::vector<Decision> cold = run();
  ASSERT_EQ(cold.size(), 2u);
  EXPECT_EQ(cold[0].result, CheckResult::kSat);
  EXPECT_EQ(cold[0].witness, 0x1080u);
  EXPECT_FALSE(cold[0].from_cache);
  EXPECT_EQ(cold[1].result, CheckResult::kUnsat);

  std::vector<Decision> warm = run();
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_TRUE(warm[0].from_cache);
  EXPECT_TRUE(warm[1].from_cache);
  EXPECT_EQ(warm[0].result, CheckResult::kSat);
  EXPECT_EQ(warm[0].witness, 0x1080u);
  EXPECT_EQ(warm[1].result, CheckResult::kUnsat);
}

// The memo: a query structurally identical to one this planner already
// decided — same shape and constants, different variable names — is
// answered without the solver, with the first outcome, witness included.
TEST_P(QueryPlannerTest, MemoDecidesStructurallyIdenticalQueriesOnce) {
  Solver s(GetParam());
  QueryPlanner planner(s, "");
  logic::BvArena& bv = s.bitvectors();
  auto overlap_query = [&](const std::string& name, uint64_t base_b) {
    IntervalQuery q;
    q.x = bv.bv_var(name, 64);
    for (auto [lo, hi] : {std::pair<uint64_t, uint64_t>{0x1000, 0x1100},
                          {base_b, base_b + 0x100}}) {
      q.fs.push_back(bv.uge(q.x, bv.bv_const(lo, 64)));
      q.fs.push_back(bv.ult(q.x, bv.bv_const(hi, 64)));
    }
    return q;
  };
  const IntervalQuery first = overlap_query("ov0.x", 0x1080);
  const IntervalQuery second = overlap_query("ov1.x", 0x1080);
  const QueryPlanner::Outcome a = planner.check(first.fs, first.x);
  const QueryPlanner::Outcome b = planner.check(second.fs, second.x);

  EXPECT_EQ(a.result, CheckResult::kSat);
  EXPECT_EQ(b.result, a.result);
  EXPECT_EQ(b.witness, a.witness);
  EXPECT_GE(a.witness, 0x1080u);
  EXPECT_LT(a.witness, 0x1100u);
  EXPECT_EQ(planner.stats().queries_issued, 1u);
  EXPECT_EQ(planner.stats().memo_hits, 1u);
  EXPECT_EQ(s.stats().checks, 1u);

  // A different constant is a different query: it reaches the solver.
  const IntervalQuery third = overlap_query("ov2.x", 0x2000);
  EXPECT_EQ(planner.check(third.fs, third.x).result, CheckResult::kUnsat);
  EXPECT_EQ(planner.stats().queries_issued, 2u);
  EXPECT_EQ(planner.stats().memo_hits, 1u);
}

// Builtin-only: the CDCL loop polls the deadline, so an already-expired one
// deterministically yields kUnknown (z3's 1ms floor may still decide a
// trivial query, which is fine but not a stable test).
TEST(QueryPlannerDeadlineTest, ExpiredDeadlineIsNotCached) {
  const std::string dir = fresh_cache_dir("deadline-builtin");
  {
    Solver s(Backend::kBuiltin);
    s.set_deadline(support::Deadline::after_ms(0));
    QueryPlanner planner(s, dir);
    IntervalQuery q = make_interval_query(s, 0x1000, 0x100, 0x1080, 0x100);
    QueryPlanner::Outcome o = planner.check(q.fs, q.x);
    EXPECT_EQ(o.result, CheckResult::kUnknown);
  }
  {
    // A later run with budget must re-attempt and decide the query.
    Solver s(Backend::kBuiltin);
    QueryPlanner planner(s, dir);
    IntervalQuery q = make_interval_query(s, 0x1000, 0x100, 0x1080, 0x100);
    QueryPlanner::Outcome o = planner.check(q.fs, q.x);
    EXPECT_EQ(o.result, CheckResult::kSat);
    EXPECT_FALSE(o.from_cache) << "kUnknown must never be served from cache";
  }
}

// The memo, unlike the persistent cache, keeps kUnknown: within one planner
// a query that ran out of budget is not re-attempted.
TEST(QueryPlannerDeadlineTest, MemoKeepsUnknownForThePlannersLifetime) {
  Solver s(Backend::kBuiltin);
  s.set_deadline(support::Deadline::after_ms(0));
  QueryPlanner planner(s, "");
  const IntervalQuery q1 = make_interval_query(s, 0x1000, 0x100, 0x1080, 0x100);
  const IntervalQuery q2 = make_interval_query(s, 0x1000, 0x100, 0x1080, 0x100);
  EXPECT_EQ(planner.check(q1.fs, q1.x).result, CheckResult::kUnknown);
  EXPECT_EQ(planner.check(q2.fs, q2.x).result, CheckResult::kUnknown);
  EXPECT_EQ(planner.stats().queries_issued, 1u);
  EXPECT_EQ(planner.stats().memo_hits, 1u);
  EXPECT_EQ(s.stats().checks, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, QueryPlannerTest,
                         ::testing::ValuesIn(all_backends()),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace llhsc::smt
