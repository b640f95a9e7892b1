// Seeded property suite for the lifted obligations: generated families in
// which many activation patterns share one overlap (and interrupt) body,
// with `alt` deltas active only while another feature is off, windows that
// several groups share, and a derivation-failure class that makes some
// obligations' presence unsatisfiable. Every family must agree with
// per-product enumeration on builtin and z3, and the engine's counters must
// match an oracle computed from the family's shape alone:
//   - one obligation per co-active region (or claim) pair per combination
//     of activation patterns;
//   - one solver query per distinct body whose presence is satisfiable;
//   - no body decided where the presence is unsatisfiable.
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dts/parser.hpp"
#include "gtest/gtest.h"
#include "lift/differential.hpp"
#include "lift/lift.hpp"
#include "obs/obs.hpp"

namespace llhsc {
namespace {

/// splitmix64: a seeded stream that is the same on every standard library
/// (std distributions are not).
struct Rng {
  uint64_t state;
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
};

std::string hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

constexpr uint64_t kDevSize = 0x1000;
constexpr uint64_t kAltSize = 0x100;
constexpr uint64_t kWindowStride = 0x100000;
constexpr uint64_t kWindowBase = 0x10000000;

/// One device a delta adds. A primary device is active iff its feature is
/// selected; the group's alt device iff the group's first feature is not.
struct Device {
  size_t group = 0;
  size_t feature = 0;
  bool alt = false;
  uint64_t offset = 0;  // inside the group's bus window
  uint64_t base = 0;    // absolute, after the bus `ranges`
  uint64_t size = kDevSize;
  bool irq = false;     // claims interrupt line 5 of the one controller
};

/// A generated family plus the shape the oracle reads.
struct Family {
  std::string core;
  std::string deltas;
  feature::FeatureModel model;
  std::vector<size_t> group_features;  // features per group
  std::vector<Device> devices;
  /// The broken delta's `when`: a conjunction of (group, feature) literals.
  std::vector<std::pair<size_t, size_t>> fail_when;
};

std::string feature_name(size_t group, size_t feature) {
  return "g" + std::to_string(group) + "f" + std::to_string(feature);
}

/// Groups of 2-4 optional features, at most 7 in all (the differential
/// enumerates every product). Each group's deltas
/// enable one bus and add a device to it, so a group is one lifted
/// component whose activation patterns are its feature assignments. Per
/// group, device 1 overlaps device 0 by 16 bytes and the alt device sits
/// inside device 0 — never co-active with it. Groups after the first may
/// share an earlier group's window and anchor their first device inside an
/// earlier device (cross-component overlaps). Group 0's first two devices
/// may also claim one interrupt line. The broken delta modifies a missing
/// node under either g0f0 && g0f1 or one random feature.
Family make_family(uint64_t seed) {
  Rng rng{seed};
  Family fam;
  const size_t groups = 1 + rng.below(3);
  const bool with_irq = rng.below(2) == 0;
  size_t total = 0;
  for (size_t g = 0; g < groups; ++g) {
    const size_t m =
        std::min<size_t>(2 + rng.below(3), 7 - total - 2 * (groups - g - 1));
    fam.group_features.push_back(m);
    total += m;
  }

  std::ostringstream core;
  core << "/dts-v1/;\n/ {\n"
       << "    #address-cells = <1>;\n    #size-cells = <1>;\n"
       << "    interrupt-parent = <1>;\n"
       << "    intc {\n        phandle = <1>;\n"
       << "        #interrupt-cells = <1>;\n"
       << "        interrupt-controller;\n    };\n";
  std::vector<uint64_t> window(groups);
  std::set<uint64_t> used;  // absolute bases: every device interval distinct
  for (size_t g = 0; g < groups; ++g) {
    window[g] = g == 0 ? 0 : rng.below(g + 1);
    const uint64_t pa = kWindowBase + kWindowStride * window[g];
    core << "    bus" << g << " {\n        compatible = \"simple-bus\";\n"
         << "        #address-cells = <1>;\n        #size-cells = <1>;\n"
         << "        ranges = <0x0 0x" << hex(pa) << " 0x"
         << hex(kWindowStride) << ">;\n        status = \"disabled\";\n"
         << "    };\n";

    // A first device at `off` places devices at off, off + 0xff0 (device
    // 1) and off + 0x100 (alt): all three bases must be new.
    auto free_first = [&](uint64_t off) {
      return !used.count(pa + off) && !used.count(pa + off + kDevSize - 0x10) &&
             !used.count(pa + off + 0x100);
    };
    // Slots step by 0x8000 from a group-specific start, so slot devices of
    // groups sharing a window never collide.
    auto fresh_offset = [&]() {
      uint64_t off;
      do {
        off = (1 + 4 * rng.below(12)) * 0x2000 + 0x200 * g;
      } while (!free_first(off));
      return off;
    };
    auto add = [&](Device d) {
      d.group = g;
      d.base = pa + d.offset;
      used.insert(d.base);
      fam.devices.push_back(d);
    };
    uint64_t first = fresh_offset();
    if (g > 0 && rng.below(2) == 0) {
      // Anchor inside an earlier device of a group sharing this window.
      std::vector<const Device*> anchors;
      for (const Device& d : fam.devices) {
        if (d.group < g && window[d.group] == window[g] && !d.alt) {
          anchors.push_back(&d);
        }
      }
      if (!anchors.empty()) {
        const uint64_t off =
            anchors[rng.below(anchors.size())]->offset + 0x800;
        if (free_first(off)) first = off;
      }
    }
    const size_t m = fam.group_features[g];
    for (size_t k = 0; k < m; ++k) {
      Device d;
      d.feature = k;
      d.offset = k == 0 ? first : k == 1 ? first + kDevSize - 0x10
                                         : fresh_offset();
      d.irq = with_irq && g == 0 && k < 2;
      add(d);
    }
    Device alt;
    alt.alt = true;
    alt.offset = first + 0x100;
    alt.size = kAltSize;
    add(alt);
  }
  core << "};\n";
  fam.core = core.str();

  std::ostringstream deltas;
  for (size_t g = 0; g < groups; ++g) {
    std::string after;
    for (const Device& d : fam.devices) {
      if (d.group != g) continue;
      const std::string name =
          "g" + std::to_string(g) +
          (d.alt ? "alt" : "d" + std::to_string(d.feature));
      deltas << "delta " << name << after << " when "
             << (d.alt ? "!" + feature_name(g, 0) : feature_name(g, d.feature))
             << " {\n    modifies /bus" << g << " {\n"
             << "        status = \"okay\";\n        dev@" << hex(d.offset)
             << " {\n            compatible = \"test,dev\";\n"
             << "            reg = <0x" << hex(d.offset) << " 0x"
             << hex(d.size) << ">;\n";
      if (d.irq) deltas << "            interrupts = <5>;\n";
      deltas << "        };\n    }\n}\n";
      after += " after " + name;
    }
  }
  if (rng.below(2) == 0) {
    fam.fail_when = {{0, 0}, {0, 1}};
  } else {
    const size_t g = rng.below(groups);
    fam.fail_when = {{g, rng.below(fam.group_features[g])}};
  }
  deltas << "delta broken when ";
  for (size_t i = 0; i < fam.fail_when.size(); ++i) {
    if (i > 0) deltas << " && ";
    deltas << feature_name(fam.fail_when[i].first, fam.fail_when[i].second);
  }
  deltas << " {\n    modifies /missing {\n"
         << "        status = \"okay\";\n    }\n}\n";
  fam.deltas = deltas.str();

  feature::FeatureId root = fam.model.add_root("family");
  for (size_t g = 0; g < groups; ++g) {
    for (size_t k = 0; k < fam.group_features[g]; ++k) {
      fam.model.add_feature(root, feature_name(g, k));
    }
  }
  return fam;
}

struct Expected {
  uint64_t obligations = 0;
  uint64_t unsat_presence = 0;  // obligations no configuration reaches
  uint64_t sat_bodies = 0;      // distinct bodies with a reachable presence
};

/// Counts the family's obligations from its shape: for every pair of
/// devices that overlap (and every pair claiming one interrupt line), one
/// obligation per assignment of the involved groups' features that
/// activates both — the assignments are the groups' activation patterns.
/// An obligation's presence is unsatisfiable iff its assignment alone
/// forces the broken delta on. Device intervals are distinct, so each pair
/// (and kind) is one body.
Expected oracle(const Family& fam) {
  Expected e;
  auto tally = [&](const Device& a, const Device& b) {
    std::vector<size_t> groups{a.group};
    if (b.group != a.group) groups.push_back(b.group);
    std::map<size_t, size_t> shift;  // group -> first bit
    size_t bits = 0;
    for (size_t g : groups) {
      shift[g] = bits;
      bits += fam.group_features[g];
    }
    bool any_sat = false;
    for (uint64_t assign = 0; assign < (uint64_t{1} << bits); ++assign) {
      auto on = [&](size_t g, size_t k) {
        return ((assign >> (shift.at(g) + k)) & 1) != 0;
      };
      auto active = [&](const Device& d) {
        return d.alt ? !on(d.group, 0) : on(d.group, d.feature);
      };
      if (!active(a) || !active(b)) continue;
      ++e.obligations;
      bool fails = true;
      for (const auto& [g, k] : fam.fail_when) {
        fails = fails && shift.count(g) != 0 && on(g, k);
      }
      if (fails) {
        ++e.unsat_presence;
      } else {
        any_sat = true;
      }
    }
    if (any_sat) ++e.sat_bodies;
  };
  for (size_t i = 0; i < fam.devices.size(); ++i) {
    for (size_t j = i + 1; j < fam.devices.size(); ++j) {
      const Device& a = fam.devices[i];
      const Device& b = fam.devices[j];
      if (a.base < b.base + b.size && b.base < a.base + a.size) tally(a, b);
      if (a.irq && b.irq) tally(a, b);
    }
  }
  return e;
}

std::unique_ptr<delta::ProductLine> parse_line(const Family& fam) {
  support::DiagnosticEngine diags;
  auto core = dts::parse_dts(fam.core, "family.dts", diags);
  auto deltas = delta::parse_deltas(fam.deltas, "family.deltas", diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  if (core == nullptr) return nullptr;
  return std::make_unique<delta::ProductLine>(std::move(core),
                                              std::move(deltas));
}

std::map<std::string, int64_t> counters(
    const std::vector<obs::Event>& events) {
  std::map<std::string, int64_t> out;
  for (const obs::Event& e : events) {
    if (e.kind == obs::Event::Kind::kCounter) out[e.name] += e.delta;
  }
  return out;
}

class LiftedSharedBodies : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiftedSharedBodies, MatchesEnumerationAndShapeOracle) {
  const Family fam = make_family(GetParam());
  const Expected want = oracle(fam);
  auto line = parse_line(fam);
  ASSERT_NE(line, nullptr);
  for (smt::Backend backend : {smt::Backend::kBuiltin, smt::Backend::kZ3}) {
    SCOPED_TRACE(std::string(smt::to_string(backend)));
    lift::LiftOptions opts;
    opts.backend = backend;
    support::DiagnosticEngine diags;
    obs::TraceSink sink;
    lift::LiftedResult r;
    {
      obs::ScopedSink guard(&sink);
      r = lift::check_family(*line, fam.model, opts, diags);
    }
    ASSERT_TRUE(r.ok) << diags.render();
    ASSERT_EQ(r.fail_classes.size(), 1u);

    std::map<std::string, int64_t> c = counters(sink.take());
    EXPECT_EQ(r.obligations, want.obligations);
    EXPECT_EQ(c["lift.obligations"], static_cast<int64_t>(want.obligations));
    EXPECT_EQ(c["planner.queries_issued"],
              static_cast<int64_t>(want.sat_bodies))
        << "one solver query per distinct body with a reachable presence";
    EXPECT_EQ(c["planner.queries_issued"] + c["planner.memo_hits"],
              static_cast<int64_t>(want.obligations - want.unsat_presence))
        << "an obligation whose presence is unsatisfiable decides no body";

    lift::DifferentialReport report =
        lift::compare_with_enumeration(*line, fam.model, r, opts);
    EXPECT_TRUE(report.equal);
    EXPECT_FALSE(report.capped);
    for (const std::string& m : report.mismatches) ADD_FAILURE() << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiftedSharedBodies,
                         ::testing::Range<uint64_t>(1, 17));

// The seeds must exercise what the suite is about: bodies shared by several
// patterns, unreachable presences, cross-component overlaps, and interrupt
// bodies.
TEST(LiftedSharedBodiesCoverage, SeedsExerciseEveryShape) {
  uint64_t reused = 0, unsat = 0, cross = 0, irq = 0;
  for (uint64_t seed = 1; seed < 17; ++seed) {
    const Family fam = make_family(seed);
    const Expected e = oracle(fam);
    reused += e.obligations - e.unsat_presence - e.sat_bodies;
    unsat += e.unsat_presence;
    for (size_t i = 0; i < fam.devices.size(); ++i) {
      irq += fam.devices[i].irq ? 1 : 0;
      for (size_t j = i + 1; j < fam.devices.size(); ++j) {
        const Device& a = fam.devices[i];
        const Device& b = fam.devices[j];
        if (a.group != b.group && a.base < b.base + b.size &&
            b.base < a.base + a.size) {
          ++cross;
        }
      }
    }
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(unsat, 0u);
  EXPECT_GT(cross, 0u);
  EXPECT_GT(irq, 0u);
}

// A family whose only overlap needs f0 && f1 — exactly the configurations
// whose derivation fails: the obligation exists, but no body is decided and
// nothing is reported beyond the derivation failure.
TEST(LiftedPresence, UnreachablePresenceDecidesNoBody) {
  support::DiagnosticEngine diags;
  auto core = dts::parse_dts(
      "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>; };\n",
      "core.dts", diags);
  auto deltas = delta::parse_deltas(
      "delta a when f0 {\n"
      "  adds binding / { deva@1000 { reg = <0x1000 0x100>; }; }\n"
      "}\n"
      "delta b when f1 {\n"
      "  adds binding / { devb@1080 { reg = <0x1080 0x100>; }; }\n"
      "}\n"
      "delta broken when f0 && f1 {\n"
      "  modifies /missing { status = \"okay\"; }\n"
      "}\n",
      "line.deltas", diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  delta::ProductLine line(std::move(core), std::move(deltas));
  feature::FeatureModel model;
  feature::FeatureId root = model.add_root("root");
  model.add_feature(root, "f0");
  model.add_feature(root, "f1");

  lift::LiftOptions opts;
  obs::TraceSink sink;
  lift::LiftedResult r;
  {
    obs::ScopedSink guard(&sink);
    r = lift::check_family(line, model, opts, diags);
  }
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.obligations, 1u);
  std::map<std::string, int64_t> c = counters(sink.take());
  EXPECT_EQ(c["lift.obligations"], 1);
  EXPECT_EQ(c["planner.queries_issued"], 0);
  EXPECT_EQ(c["planner.memo_hits"], 0);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].finding.kind, checkers::FindingKind::kDeriveFailure);
  lift::DifferentialReport report =
      lift::compare_with_enumeration(line, model, r, opts);
  EXPECT_TRUE(report.equal);
  for (const std::string& m : report.mismatches) ADD_FAILURE() << m;
}

}  // namespace
}  // namespace llhsc
