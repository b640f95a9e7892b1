// Semantic checker tests — paper §IV-C / E4. The headline scenario: a UART
// whose base address clashes with a memory bank is invisible to syntactic
// checking but caught here, with a solver-produced witness address.
#include "checkers/semantic.hpp"

#include <gtest/gtest.h>

#include <array>

#include "checkers/interval_baseline.hpp"
#include "dts/parser.hpp"
#include "random_boards.hpp"

namespace llhsc::checkers {
namespace {

std::unique_ptr<dts::Tree> parse_ok(std::string_view src) {
  support::DiagnosticEngine de;
  auto t = dts::parse_dts(src, "t.dts", de);
  EXPECT_FALSE(de.has_errors()) << de.render();
  return t;
}

TEST(RegionExtraction, RunningExampleRegions) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
    uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0].base, 0x40000000u);
  EXPECT_EQ(regions[0].size, 0x20000000u);
  EXPECT_TRUE(regions[0].is_memory());
  EXPECT_EQ(regions[1].base, 0x60000000u);
  EXPECT_EQ(regions[1].entry_index, 1u);
  EXPECT_EQ(regions[2].base, 0x20000000u);
  EXPECT_EQ(regions[2].size, 0x1000u);
  EXPECT_EQ(regions[2].region_class, RegionClass::kDevice);
  EXPECT_TRUE(f.empty());
}

TEST(RegionExtraction, SixtyFourBitAddressesCombine) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@0 { device_type = "memory"; reg = <0x1 0x80000000 0x0 0x10000>; };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].base, 0x180000000ull);
  EXPECT_EQ(regions[0].size, 0x10000u);
}

TEST(RegionExtraction, CpuRegIsNotARegion) {
  auto tree = parse_ok(R"(
/ {
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { reg = <0>; };
    };
};
)");
  Findings f;
  EXPECT_TRUE(extract_regions(*tree, f).empty())
      << "#size-cells = 0 means reg is an id, not an address range";
}

TEST(RegionExtraction, TruncationReinterpretsEntries) {
  // The §IV-C scenario: root switched to 1/1 cells, memory reg still has 8
  // cells -> FOUR 32-bit banks instead of two 64-bit ones.
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  ASSERT_EQ(regions.size(), 4u) << "four banks of memory, not the original two";
  EXPECT_EQ(regions[0].base, 0x0u);
  EXPECT_EQ(regions[2].base, 0x0u);
}

TEST(RegionExtraction, RangesTranslation) {
  // A bus mapping child [0x0, 0x10000) to CPU 0x10000000.
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    bus@10000000 {
        #address-cells = <1>;
        #size-cells = <1>;
        reg = <0x10000000 0x10000>;
        ranges = <0x0 0x10000000 0x10000>;
        dev@100 { reg = <0x100 0x10>; };
    };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  EXPECT_TRUE(f.empty()) << render(f);
  ASSERT_EQ(regions.size(), 2u);
  // The bus's own reg is in the root space.
  EXPECT_EQ(regions[0].base, 0x10000000u);
  // The device translates through the bus's ranges.
  EXPECT_EQ(regions[1].base, 0x10000100u);
  EXPECT_EQ(regions[1].local_base, 0x100u);
}

TEST(RegionExtraction, NestedRangesCompose) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    outer {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x40000000 0x100000>;
        inner {
            #address-cells = <1>;
            #size-cells = <1>;
            ranges = <0x0 0x1000 0x1000>;
            dev@20 { reg = <0x20 0x10>; };
        };
    };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  ASSERT_EQ(regions.size(), 1u);
  // 0x20 -> inner: 0x1020 -> outer: 0x40001020.
  EXPECT_EQ(regions[0].base, 0x40001020u);
}

TEST(RegionExtraction, BooleanRangesIsIdentity) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    soc {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges;
        dev@5000 { reg = <0x5000 0x100>; };
    };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].base, 0x5000u);
}

TEST(RegionExtraction, OutOfRangesRegIsFlagged) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    bus {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x10000000 0x1000>;
        dev@2000 { reg = <0x2000 0x10>; };
    };
};
)");
  Findings f;
  auto regions = extract_regions(*tree, f);
  EXPECT_TRUE(regions.empty());
  ASSERT_TRUE(contains(f, FindingKind::kRangesViolation)) << render(f);
}

TEST(RegionExtraction, TranslatedOverlapDetected) {
  // Two buses map different local addresses onto the SAME cpu window: the
  // clash is only visible after translation.
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    busa {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0x20000000 0x10000>;
        deva@0 { reg = <0x0 0x100>; };
    };
    busb {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x8000 0x20000000 0x10000>;
        devb@8000 { reg = <0x8000 0x100>; };
    };
};
)");
  SemanticChecker checker;
  Findings f = checker.check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kAddressOverlap))
      << "0x0 via busa and 0x8000 via busb both land at 0x20000000: "
      << render(f);
}

class SemanticTest : public ::testing::TestWithParam<smt::Backend> {
 protected:
  Findings check(const dts::Tree& tree) {
    SemanticChecker checker(GetParam());
    return checker.check(tree);
  }
};

// E4 — the paper's §I-A clash: uart base = second memory bank base.
TEST_P(SemanticTest, UartMemoryClashDetected) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
    uart@60000000 { compatible = "ns16550a"; reg = <0x0 0x60000000 0x0 0x1000>; };
};
)");
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kAddressOverlap)) << render(f);
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap) {
      // The witness must lie inside both ranges.
      EXPECT_GE(finding.witness, 0x60000000u);
      EXPECT_LT(finding.witness, 0x60001000u);
    }
  }
}

TEST_P(SemanticTest, DisjointLayoutPasses) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
    uart@20000000 { compatible = "ns16550a"; reg = <0x0 0x20000000 0x0 0x1000>; };
    uart@30000000 { compatible = "ns16550a"; reg = <0x0 0x30000000 0x0 0x1000>; };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u) << render(f);
}

// E5 — omitted d4: four truncated banks collide at 0x0.
TEST_P(SemanticTest, TruncationCollisionAtZero) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
};
)");
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kAddressOverlap)) << render(f);
  bool witness_at_zero_range = false;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap &&
        finding.base_a == 0 && finding.base_b == 0) {
      witness_at_zero_range = true;
      EXPECT_LT(finding.witness, 0x20000000u)
          << "witness must sit in the shared prefix of the zero-based banks";
    }
  }
  EXPECT_TRUE(witness_at_zero_range)
      << "the paper reports an actual collision on address 0x0: " << render(f);
}

TEST_P(SemanticTest, AdjacentRegionsDoNotOverlap) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x40000000 0x20000000 0x60000000 0x20000000>;
    };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u)
      << "[0x40000000,0x60000000) and [0x60000000,0x80000000) touch but do "
         "not overlap: "
      << render(f);
}

TEST_P(SemanticTest, OneByteOverlapDetected) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    a@1000 { reg = <0x1000 0x101>; };
    b@1100 { reg = <0x1100 0x100>; };
};
)");
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kAddressOverlap)) << render(f);
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap) {
      EXPECT_EQ(finding.witness, 0x1100u) << "only one address is shared";
    }
  }
}

TEST_P(SemanticTest, IpcInsideMemoryIsAllowed) {
  // Bao carves IPC shared memory out of RAM (Listing 6: ipc at 0x70000000
  // inside the 0x60000000+0x20000000 bank).
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x40000000 0x20000000 0x60000000 0x20000000>;
    };
    vEthernet {
        veth1@70000000 { compatible = "veth"; reg = <0x70000000 0x10000000>; id = <1>; };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u) << render(f);
}

TEST_P(SemanticTest, IpcVsIpcOverlapIsError) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    vEthernet {
        veth0@70000000 { compatible = "veth"; reg = <0x70000000 0x10000000>; id = <0>; };
        veth1@78000000 { compatible = "veth"; reg = <0x78000000 0x10000000>; id = <1>; };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kAddressOverlap)) << render(f);
}

TEST_P(SemanticTest, IpcVsDeviceOverlapIsError) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    uart@70000000 { compatible = "ns16550a"; reg = <0x70000000 0x1000>; };
    vEthernet {
        veth0@70000000 { compatible = "veth"; reg = <0x70000000 0x10000000>; id = <0>; };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kAddressOverlap)) << render(f);
}

TEST_P(SemanticTest, SizeOverflowDetected) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    bad@0 { reg = <0xffffffff 0xfffff000 0x0 0x2000>; };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kSizeOverflow)) << render(f);
}

TEST_P(SemanticTest, ZeroSizeRegionWarns) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    dev@1000 { reg = <0x1000 0x0>; };
};
)");
  Findings f = check(*tree);
  EXPECT_TRUE(contains(f, FindingKind::kZeroSizeRegion));
  EXPECT_EQ(error_count(f), 0u);
}

TEST_P(SemanticTest, OversizedCellDetected) {
  dts::Tree tree;
  tree.root().set_property(dts::Property::cells("#address-cells", {1}));
  tree.root().set_property(dts::Property::cells("#size-cells", {1}));
  dts::Node& n = tree.root().get_or_create_child("dev@0");
  n.set_property(dts::Property::cells("reg", {0x100000000ull, 0x1000}));
  Findings f = check(tree);
  EXPECT_TRUE(contains(f, FindingKind::kRegWidthViolation)) << render(f);
}

TEST_P(SemanticTest, InterruptCollisionDetected) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    a@1000 { reg = <0x1000 0x10>; interrupts = <5>; };
    b@2000 { reg = <0x2000 0x10>; interrupts = <5>; };
    c@3000 { reg = <0x3000 0x10>; interrupts = <6>; };
};
)");
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kInterruptCollision)) << render(f);
  int collisions = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kInterruptCollision) ++collisions;
  }
  EXPECT_EQ(collisions, 1);
}

TEST_P(SemanticTest, DifferentInterruptParentsDoNotCollide) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    pic_a: pic@100 { reg = <0x100 0x10>; };
    pic_b: pic@200 { reg = <0x200 0x10>; };
    a@1000 { reg = <0x1000 0x10>; interrupt-parent = <&pic_a>; interrupts = <5>; };
    b@2000 { reg = <0x2000 0x10>; interrupt-parent = <&pic_b>; interrupts = <5>; };
};
)");
  Findings f = check(*tree);
  EXPECT_FALSE(contains(f, FindingKind::kInterruptCollision)) << render(f);
}

// compatible is a stringlist; the veth binding may be the fallback entry,
// not the first. Regression: classify() used as_string(), which only
// matches a single-string compatible.
TEST_P(SemanticTest, VethCompatibleAnywhereInStringlistIsIpc) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x40000000 0x20000000 0x60000000 0x20000000>;
    };
    vEthernet {
        shm@70000000 { compatible = "acme,veth-2", "veth"; reg = <0x70000000 0x10000000>; id = <1>; };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_EQ(error_count(f), 0u)
      << "a multi-entry compatible containing \"veth\" is an IPC window and "
         "may overlap RAM: "
      << render(f);
}

// Regression: check_interrupts read only cells[0] of the first entry, so a
// collision on the second entry of a multi-entry interrupts went unseen.
TEST_P(SemanticTest, SecondInterruptEntryCollisionDetected) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    a@1000 { reg = <0x1000 0x10>; interrupts = <5 9>; };
    b@2000 { reg = <0x2000 0x10>; interrupts = <9>; };
};
)");
  Findings f = check(*tree);
  int collisions = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kInterruptCollision) {
      ++collisions;
      EXPECT_EQ(finding.base_a, 9u) << finding.render();
    }
  }
  EXPECT_EQ(collisions, 1)
      << "a's second entry and b's first both claim line 9: " << render(f);
}

// Multi-cell specifiers: the parent's #interrupt-cells sets the tuple
// stride, and tuples compare whole — differing only in a trailing cell is
// not a collision (the old cells[0] comparison would have flagged it).
TEST_P(SemanticTest, StridedInterruptTuplesCompareWhole) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    gic: intc@8000000 { reg = <0x8000000 0x10000>; #interrupt-cells = <3>; };
    a@1000 { reg = <0x1000 0x10>; interrupt-parent = <&gic>; interrupts = <0 10 4>; };
    b@2000 { reg = <0x2000 0x10>; interrupt-parent = <&gic>; interrupts = <0 10 4>; };
    c@3000 { reg = <0x3000 0x10>; interrupt-parent = <&gic>; interrupts = <0 10 8>; };
};
)");
  Findings f = check(*tree);
  int collisions = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kInterruptCollision) {
      ++collisions;
      EXPECT_EQ(finding.subject, "/b@2000") << finding.render();
      EXPECT_EQ(finding.other_subject, "/a@1000") << finding.render();
    }
  }
  EXPECT_EQ(collisions, 1) << render(f);
}

// interrupt-parent inherits from the nearest ancestor per the DT spec, so
// equal lines routed to different inherited parents do not collide.
TEST_P(SemanticTest, InheritedInterruptParentsResolvePerSubtree) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    pic_a: pic@100 { reg = <0x100 0x10>; #interrupt-cells = <1>; };
    pic_b: pic@200 { reg = <0x200 0x10>; #interrupt-cells = <1>; };
    soc_a {
        interrupt-parent = <&pic_a>;
        a@1000 { reg = <0x1000 0x10>; interrupts = <5>; };
    };
    soc_b {
        interrupt-parent = <&pic_b>;
        b@2000 { reg = <0x2000 0x10>; interrupts = <5>; };
        c@3000 { reg = <0x3000 0x10>; interrupts = <5>; };
    };
};
)");
  Findings f = check(*tree);
  int collisions = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kInterruptCollision) {
      ++collisions;
      EXPECT_EQ(finding.subject, "/soc_b/c@3000") << finding.render();
    }
  }
  EXPECT_EQ(collisions, 1)
      << "only b and c share the inherited parent pic_b: " << render(f);
}

TEST_P(SemanticTest, FindingsCarryProvenance) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    a@1000 { reg = <0x1000 0x100>; };
    b@1080 { reg = <0x1080 0x100>; };
};
)");
  tree->find("/b@1080")->set_provenance("d7");
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kAddressOverlap));
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap) {
      EXPECT_EQ(finding.delta, "d7") << "blame the delta that made the region";
    }
  }
}

// The §IV-C d3 scenario across buses: the overlapping regions live under
// parents with DIFFERENT #address-cells. The dma's reg was authored for the
// 2-cell world; its parent's truncation to 1/1 cells re-reads it as two
// 32-bit regions, the first of which floods [0x0, 0x50000000) and collides
// with the memory bank whose parent kept 2-cell addressing.
TEST_P(SemanticTest, TruncationAcrossBusesWithDifferentAddressCells) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };
    soc {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges;
        dma@5000000000 { reg = <0x0 0x50000000 0x0 0x1000>; };
    };
};
)");
  Findings f = check(*tree);
  bool memory_vs_dma = false;
  for (const Finding& finding : f) {
    if (finding.kind != FindingKind::kAddressOverlap) continue;
    memory_vs_dma =
        finding.subject.rfind("/memory@40000000", 0) == 0 &&
        finding.other_subject.rfind("/soc/dma@5000000000", 0) == 0;
    if (memory_vs_dma) {
      EXPECT_GE(finding.witness, 0x40000000u);
      EXPECT_LT(finding.witness, 0x50000000u);
      break;
    }
  }
  EXPECT_TRUE(memory_vs_dma)
      << "expected the truncated dma region to overlap the memory bank: "
      << render(f);
}

// Control for the test above: with the soc bus kept at 2-cell addressing the
// reg is one region at the device's true address 0x50'00000000, far above
// the end of memory, and nothing overlaps.
TEST_P(SemanticTest, NoTruncationNoOverlap) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };
    soc {
        #address-cells = <2>;
        #size-cells = <2>;
        ranges;
        dma@5000000000 { reg = <0x50 0x00000000 0x0 0x1000>; };
    };
};
)");
  Findings f = check(*tree);
  EXPECT_FALSE(contains(f, FindingKind::kAddressOverlap)) << render(f);
}

// The d3 blame chain: the overlap introduced purely by re-interpretation
// must blame the delta that rewrote the governing cell widths.
TEST_P(SemanticTest, TruncationOverlapBlamesTheCellsDelta) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000 0x0 0x60000000 0x0 0x20000000>;
    };
};
)");
  dts::Property cells = dts::Property::cells("#address-cells", {1});
  cells.provenance = "d3";
  tree->root().set_property(std::move(cells));
  Findings f = check(*tree);
  ASSERT_TRUE(contains(f, FindingKind::kAddressOverlap)) << render(f);
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap) {
      EXPECT_EQ(finding.delta, "d3") << finding.render();
    }
  }
}

// A solver budget that cannot cover the query load must surface as exactly
// one error-severity kSolverTimeout finding (remaining queries are skipped,
// not silently passed) — and the run terminates promptly instead of hanging.
// plan = false: under the planner these disjoint regions never reach the
// solver at all (see PlannedBudgetExhaustionStillReportsTimeout for the
// planned-path variant).
TEST(SemanticTimeout, ExhaustedBudgetReportsOneTimeoutFinding) {
  std::vector<MemRegion> regions;
  for (int i = 0; i < 48; ++i) {
    MemRegion r;
    r.path = "/r" + std::to_string(i);
    r.base = static_cast<uint64_t>(i) * 0x1000;
    r.size = 0x800;
    r.region_class = RegionClass::kDevice;
    regions.push_back(std::move(r));
  }
  SemanticOptions opts;
  opts.solver_timeout_ms = 1;
  opts.plan = false;
  SemanticChecker checker(smt::Backend::kBuiltin, opts);
  Findings f = checker.check_regions(regions);
  int timeouts = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kSolverTimeout) {
      ++timeouts;
      EXPECT_EQ(finding.severity, FindingSeverity::kError);
    }
  }
  EXPECT_EQ(timeouts, 1) << render(f);
  EXPECT_GT(error_count(f), 0u);
}

// The planned path prunes structurally-disjoint queries, but queries that
// survive the prefilter still respect the budget: pile up enough genuinely
// overlapping pairs and the timeout finding fires exactly as before. The
// bases are pairwise distinct, so every surviving pair is a distinct query
// the planner's memo cannot answer from an earlier one.
TEST(SemanticTimeout, PlannedBudgetExhaustionStillReportsTimeout) {
  std::vector<MemRegion> regions;
  for (int i = 0; i < 64; ++i) {
    MemRegion r;
    r.path = "/r" + std::to_string(i);
    // Spread over 0x400 bytes, each 0x800 long: every pair overlaps.
    r.base = 0x1000 + static_cast<uint64_t>(i) * 0x10;
    r.size = 0x800;
    r.region_class = RegionClass::kDevice;
    regions.push_back(std::move(r));
  }
  SemanticOptions opts;
  opts.solver_timeout_ms = 1;
  opts.plan = true;
  SemanticChecker checker(smt::Backend::kBuiltin, opts);
  Findings f = checker.check_regions(regions);
  int timeouts = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kSolverTimeout) {
      ++timeouts;
      EXPECT_EQ(finding.severity, FindingSeverity::kError);
    }
  }
  EXPECT_EQ(timeouts, 1) << render(f);
  EXPECT_GT(error_count(f), 0u);
}

TEST(SemanticTimeout, GenerousBudgetDoesNotFire) {
  std::vector<MemRegion> regions;
  for (int i = 0; i < 4; ++i) {
    MemRegion r;
    r.path = "/r" + std::to_string(i);
    r.base = static_cast<uint64_t>(i) * 0x10000;
    r.size = 0x1000;
    r.region_class = RegionClass::kDevice;
    regions.push_back(std::move(r));
  }
  SemanticOptions opts;
  opts.solver_timeout_ms = 60000;
  SemanticChecker checker(smt::Backend::kBuiltin, opts);
  Findings f = checker.check_regions(regions);
  EXPECT_FALSE(contains(f, FindingKind::kSolverTimeout)) << render(f);
  EXPECT_EQ(error_count(f), 0u) << render(f);
}

// Property sweep: random region sets, solver verdict vs interval arithmetic.
// gtest names a parameter that has no printer by its bytes, and ctest takes
// the test name from that dump, so the padding is explicit and zero: implicit
// padding carried heap leftovers into the names, different on every build.
struct RandomRegionsCase {
  uint32_t seed;
  smt::Backend backend;
  std::array<uint8_t, 3> padding{};
  int count;
};

class RandomRegionsTest : public ::testing::TestWithParam<RandomRegionsCase> {};

TEST_P(RandomRegionsTest, SolverAgreesWithIntervalArithmetic) {
  const std::vector<MemRegion> regions =
      random_regions(GetParam().seed, GetParam().count, false);
  SemanticChecker checker(GetParam().backend);
  Findings f = checker.check_regions(regions);
  size_t solver_overlaps = 0;
  for (const Finding& finding : f) {
    if (finding.kind == FindingKind::kAddressOverlap) ++solver_overlaps;
  }
  size_t interval_overlaps = 0;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = i + 1; j < regions.size(); ++j) {
      if (regions[i].base < regions[j].base + regions[j].size &&
          regions[j].base < regions[i].base + regions[i].size) {
        ++interval_overlaps;
      }
    }
  }
  EXPECT_EQ(solver_overlaps, interval_overlaps);
}

// Satellite property test for the query planner: on random concrete region
// sets the planned path must be finding-equivalent (every field, witness
// included) to the exhaustive pairwise path, and both verdict-equivalent to
// the structural sweep-line baseline. Mixed classes exercise the planner's
// class-pair pruning (ipc-vs-memory is never a fault).
TEST_P(RandomRegionsTest, PlannedPathMatchesExhaustiveAndBaseline) {
  const std::vector<MemRegion> regions = random_regions(
      GetParam().seed ^ 0x9e3779b97f4a7c15ull, GetParam().count, true);

  SemanticOptions planned_opts;
  planned_opts.plan = true;
  SemanticOptions exhaustive_opts;
  exhaustive_opts.plan = false;
  SemanticChecker planned(GetParam().backend, planned_opts);
  SemanticChecker exhaustive(GetParam().backend, exhaustive_opts);
  Findings pf = planned.check_regions(regions);
  Findings ef = exhaustive.check_regions(regions);

  ASSERT_EQ(pf.size(), ef.size()) << "planned:\n"
                                  << render(pf) << "exhaustive:\n"
                                  << render(ef);
  for (size_t i = 0; i < pf.size(); ++i) {
    EXPECT_EQ(pf[i].kind, ef[i].kind);
    EXPECT_EQ(pf[i].subject, ef[i].subject);
    EXPECT_EQ(pf[i].other_subject, ef[i].other_subject);
    EXPECT_EQ(pf[i].base_a, ef[i].base_a);
    EXPECT_EQ(pf[i].size_a, ef[i].size_a);
    EXPECT_EQ(pf[i].base_b, ef[i].base_b);
    EXPECT_EQ(pf[i].size_b, ef[i].size_b);
    EXPECT_EQ(pf[i].witness, ef[i].witness)
        << "planned and exhaustive witnesses must agree at " << pf[i].render();
    EXPECT_EQ(pf[i].message, ef[i].message);
  }

  auto overlap_count = [](const Findings& fs) {
    size_t n = 0;
    for (const Finding& f : fs) {
      if (f.kind == FindingKind::kAddressOverlap) ++n;
    }
    return n;
  };
  EXPECT_EQ(overlap_count(pf), overlap_count(check_regions_baseline(regions)))
      << "solver path and structural baseline must agree on the verdict";
}

std::vector<RandomRegionsCase> region_cases() {
  std::vector<RandomRegionsCase> cases;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({seed, smt::Backend::kBuiltin, {}, 8});
    cases.push_back({seed + 10, smt::Backend::kZ3, {}, 8});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, RandomRegionsTest,
                         ::testing::ValuesIn(region_cases()));

INSTANTIATE_TEST_SUITE_P(Backends, SemanticTest,
                         ::testing::ValuesIn(smt::all_backends()),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

}  // namespace
}  // namespace llhsc::checkers
