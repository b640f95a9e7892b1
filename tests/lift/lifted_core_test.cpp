// Seeded equivalence suite for the one semantic obligation loop: a family
// with no deltas (one core, a model with only its root feature) checked by
// lift::check_family must report exactly what SemanticChecker::check
// reports on the core — every field, byte for byte, apart from the
// " [configs: all configurations]" annotation. The cores are the
// RandomClaims boards plus the RandomRegions region sets as `reg` nodes,
// with zero-size regions, a region wrapping the 64-bit space, and narrow
// address widths that mask and wrap many more.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "../checkers/random_boards.hpp"
#include "checkers/report.hpp"
#include "checkers/semantic.hpp"
#include "dts/parser.hpp"
#include "lift/lift.hpp"

namespace llhsc {
namespace {

using checkers::Finding;
using checkers::FindingKind;
using checkers::Findings;

// ctest names a case by the bytes of its parameter, so the padding is
// explicit and zero (see RandomRegionsCase in tests/checkers).
struct CoreCase {
  uint32_t seed;
  smt::Backend backend;
  std::array<uint8_t, 3> padding{};
  uint32_t address_bits;
};

constexpr const char* kAnnotation = " [configs: all configurations]";

/// The RandomClaims board of `seed` plus a second root block holding the
/// RandomRegions set of `seed` as 64-bit `reg` nodes. Every fourth region
/// has size 0, and one more region wraps the 64-bit space.
std::string core_dts(uint32_t seed) {
  std::vector<checkers::MemRegion> regions =
      checkers::random_regions(seed, 12, true);
  for (size_t i = 3; i < regions.size(); i += 4) regions[i].size = 0;
  checkers::MemRegion top;
  top.path = "/r" + std::to_string(regions.size());
  top.base = 0xfffffffffffff000ull;
  top.size = 0x2000;
  regions.push_back(top);

  std::ostringstream os;
  os << checkers::random_claims_dts(seed)
     << "/ {\n  #address-cells = <2>;\n  #size-cells = <2>;\n";
  for (const checkers::MemRegion& r : regions) {
    os << "  " << r.path.substr(1) << " {\n";
    if (r.region_class == checkers::RegionClass::kMemory) {
      os << "    device_type = \"memory\";\n";
    } else if (r.region_class == checkers::RegionClass::kIpc) {
      os << "    compatible = \"veth\";\n";
    }
    os << "    reg = <" << (r.base >> 32) << " " << (r.base & 0xffffffffu)
       << " " << (r.size >> 32) << " " << (r.size & 0xffffffffu) << ">;\n"
       << "  };\n";
  }
  os << "};\n";
  return os.str();
}

std::unique_ptr<dts::Tree> parse(const std::string& src) {
  support::DiagnosticEngine diags;
  auto tree = dts::parse_dts(src, "core.dts", diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render() << src;
  return tree;
}

/// The lifted engine's report order, applied to both sides.
void sort_findings(Findings& fs) {
  std::stable_sort(fs.begin(), fs.end(),
                   [](const Finding& x, const Finding& y) {
                     return std::tie(x.kind, x.subject, x.other_subject,
                                     x.message) <
                            std::tie(y.kind, y.subject, y.other_subject,
                                     y.message);
                   });
}

Findings per_product(const std::string& src, const CoreCase& c) {
  auto tree = parse(src);
  if (tree == nullptr) return {};
  checkers::SemanticOptions opts;
  opts.address_bits = c.address_bits;
  Findings out = checkers::SemanticChecker(c.backend, opts).check(*tree);
  sort_findings(out);
  return out;
}

class LiftedCoreTest : public ::testing::TestWithParam<CoreCase> {};

TEST_P(LiftedCoreTest, ZeroDeltaFamilyEqualsPerProductCheck) {
  const CoreCase& c = GetParam();
  const std::string src = core_dts(c.seed);
  const Findings want = per_product(src, c);

  auto core = parse(src);
  ASSERT_NE(core, nullptr);
  delta::ProductLine line(std::move(core), {});
  feature::FeatureModel model;
  model.add_root("core");
  lift::LiftOptions opts;
  opts.backend = c.backend;
  opts.address_bits = c.address_bits;
  support::DiagnosticEngine diags;
  const lift::LiftedResult result =
      lift::check_family(line, model, opts, diags);
  ASSERT_TRUE(result.ok) << diags.render();
  EXPECT_EQ(result.components, 0u);

  Findings got = lift::flatten(result);
  for (Finding& f : got) {
    ASSERT_TRUE(f.message.ends_with(kAnnotation)) << f.render();
    f.message.resize(f.message.size() - std::string(kAnnotation).size());
  }
  sort_findings(got);
  EXPECT_EQ(checkers::render(got), checkers::render(want)) << src;
  EXPECT_EQ(checkers::report_json(got), checkers::report_json(want)) << src;
}

std::vector<CoreCase> core_cases() {
  std::vector<CoreCase> cases;
  for (uint32_t bits : {64u, 32u, 20u, 16u}) {
    for (uint32_t seed = 1; seed <= 8; ++seed) {
      cases.push_back({seed, smt::Backend::kBuiltin, {}, bits});
    }
    for (uint32_t seed = 101; seed <= 102; ++seed) {
      cases.push_back({seed, smt::Backend::kZ3, {}, bits});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LiftedCoreTest, ::testing::ValuesIn(core_cases()),
    [](const ::testing::TestParamInfo<CoreCase>& info) {
      return std::string(smt::to_string(info.param.backend)) + "_seed" +
             std::to_string(info.param.seed) + "_w" +
             std::to_string(info.param.address_bits);
    });

// Guards the generator: the cases above must exercise every obligation
// kind, or their equality proves nothing.
TEST(LiftedCoreCoverage, CasesProduceEveryObligationKind) {
  std::set<FindingKind> kinds;
  for (const CoreCase& c : core_cases()) {
    for (const Finding& f : per_product(core_dts(c.seed), c)) {
      kinds.insert(f.kind);
    }
  }
  for (FindingKind k :
       {FindingKind::kZeroSizeRegion, FindingKind::kSizeOverflow,
        FindingKind::kAddressOverlap, FindingKind::kInterruptCollision,
        FindingKind::kClockCollision}) {
    EXPECT_TRUE(kinds.count(k)) << checkers::to_string(k);
  }
}

}  // namespace
}  // namespace llhsc
