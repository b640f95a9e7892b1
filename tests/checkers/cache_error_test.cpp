// An unusable --cache-dir must be loud: the QueryCache records why it
// disabled itself, the planner counts it, and the semantic checker surfaces
// exactly one cache-unavailable warning — never a silent cold run.
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "checkers/semantic.hpp"
#include "dts/parser.hpp"
#include "smt/query_cache.hpp"

namespace llhsc {
namespace {

std::string make_temp_dir() {
  char tmpl[] = "/tmp/llhsc_cache_test_XXXXXX";
  return ::mkdtemp(tmpl);
}

std::unique_ptr<dts::Tree> small_tree() {
  constexpr const char* kDts = R"(/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x1000000>; };
    uart@20000000 { compatible = "ns16550a"; reg = <0x20000000 0x1000>; };
};
)";
  support::DiagnosticEngine diags;
  dts::SourceManager sources;
  auto tree = dts::parse_dts(kDts, "t.dts", sources, diags);
  EXPECT_NE(tree, nullptr) << diags.render();
  return tree;
}

size_t count_kind(const checkers::Findings& findings,
                  checkers::FindingKind kind) {
  size_t n = 0;
  for (const auto& f : findings) {
    if (f.kind == kind) ++n;
  }
  return n;
}

TEST(QueryCacheError, FileAsCacheDirDisablesWithReason) {
  const std::string dir = make_temp_dir();
  const std::string file_path = dir + "/plain-file";
  std::ofstream(file_path) << "not a directory";

  smt::QueryCache cache(file_path, smt::Backend::kBuiltin);
  EXPECT_FALSE(cache.enabled());
  EXPECT_NE(cache.error().find("not a directory"), std::string::npos)
      << cache.error();

  std::remove(file_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(QueryCacheError, FailedOpenIsNeverRemembered) {
  // The process-wide open shares successes only: each failed open reports
  // its reason, and once the file is gone the next open succeeds.
  const std::string dir = make_temp_dir();
  const std::string file_path = dir + "/plain-file";
  std::ofstream(file_path) << "not a directory";

  auto first = smt::QueryCache::open(file_path, smt::Backend::kBuiltin);
  auto second = smt::QueryCache::open(file_path, smt::Backend::kBuiltin);
  EXPECT_FALSE(first->enabled());
  EXPECT_FALSE(second->enabled());
  EXPECT_NE(first, second);
  EXPECT_NE(second->error().find("not a directory"), std::string::npos)
      << second->error();

  std::remove(file_path.c_str());
  auto third = smt::QueryCache::open(file_path, smt::Backend::kBuiltin);
  EXPECT_TRUE(third->enabled()) << third->error();
  ::rmdir(third->directory().c_str());
  ::rmdir(file_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(QueryCacheError, UsableDirReportsNoError) {
  const std::string dir = make_temp_dir();
  smt::QueryCache cache(dir, smt::Backend::kBuiltin);
  EXPECT_TRUE(cache.enabled());
  EXPECT_TRUE(cache.error().empty()) << cache.error();
  // Cleanup: best effort; the versioned subdir holds no entries yet.
  ::rmdir(cache.directory().c_str());
  ::rmdir(dir.c_str());
}

TEST(QueryCacheError, SemanticCheckerEmitsOneWarningFinding) {
  const std::string dir = make_temp_dir();
  const std::string file_path = dir + "/plain-file";
  std::ofstream(file_path) << "not a directory";

  auto tree = small_tree();
  checkers::SemanticOptions options;
  options.cache_dir = file_path;
  checkers::SemanticChecker checker(smt::Backend::kBuiltin, options);

  checkers::Findings first = checker.check(*tree);
  ASSERT_EQ(count_kind(first, checkers::FindingKind::kCacheUnavailable), 1u);
  for (const auto& f : first) {
    if (f.kind != checkers::FindingKind::kCacheUnavailable) continue;
    EXPECT_EQ(f.severity, checkers::FindingSeverity::kWarning);
    EXPECT_EQ(f.subject, file_path);
    EXPECT_NE(f.message.find("query cache disabled"), std::string::npos);
  }
  EXPECT_EQ(checker.plan_stats().cache_errors, 1u);

  // The warning is once per checker lifetime, not once per check() call —
  // the pipeline reuses one checker per unit and must not spam.
  checkers::Findings second = checker.check(*tree);
  EXPECT_EQ(count_kind(second, checkers::FindingKind::kCacheUnavailable), 0u);

  std::remove(file_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(QueryCacheError, NoCacheDirNoFinding) {
  auto tree = small_tree();
  checkers::SemanticChecker checker(smt::Backend::kBuiltin);
  checkers::Findings findings = checker.check(*tree);
  EXPECT_EQ(count_kind(findings, checkers::FindingKind::kCacheUnavailable),
            0u);
  EXPECT_EQ(checker.plan_stats().cache_errors, 0u);
}

}  // namespace
}  // namespace llhsc
