// Seeded generators shared by the semantic property suites: random region
// sets (RandomRegionsTest) and random claim boards (RandomClaimsTest), so
// the lifted suite (tests/lift/lifted_core_test.cpp) runs the very inputs the
// per-product suites run.
#pragma once

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "checkers/semantic.hpp"

namespace llhsc::checkers {

/// `count` regions "/r<i>" with bases in [0, 2^20] and sizes in [1, 2^12];
/// all devices, or (`mixed_classes`) device, ipc and memory at random.
inline std::vector<MemRegion> random_regions(uint64_t seed, int count,
                                             bool mixed_classes) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> base_dist(0, 1 << 20);
  std::uniform_int_distribution<uint64_t> size_dist(1, 1 << 12);
  std::uniform_int_distribution<int> class_dist(0, 2);
  std::vector<MemRegion> regions;
  for (int i = 0; i < count; ++i) {
    MemRegion r;
    r.path = "/r" + std::to_string(i);
    r.base = base_dist(rng);
    r.size = size_dist(rng);
    r.region_class = RegionClass::kDevice;
    if (mixed_classes) {
      switch (class_dist(rng)) {
        case 0: r.region_class = RegionClass::kDevice; break;
        case 1: r.region_class = RegionClass::kIpc; break;
        default: r.region_class = RegionClass::kMemory; break;
      }
    }
    regions.push_back(std::move(r));
  }
  return regions;
}

/// A random board with no `reg` anywhere, so the semantic checker's only
/// queries are claim queries. Cell values come from {0, 1, 2} so that
/// collisions are frequent.
inline std::string random_claims_dts(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](uint32_t n) {
    return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
  };
  std::ostringstream os;
  os << "/dts-v1/;\n/ {\n";
  // Interrupt controllers: phandles 1..3, 1..3 cells each.
  for (uint32_t p = 1; p <= 3; ++p) {
    os << "  intc" << p << " { phandle = <" << p
       << ">; interrupt-controller; #interrupt-cells = <" << 1 + pick(3)
       << ">; };\n";
  }
  // Clock providers: phandles 11..13; 11 is a single-clock (zero-cell)
  // provider, the others take one or two specifier cells.
  const uint32_t clock_cells[] = {0, 1 + pick(2), 1 + pick(2)};
  for (uint32_t p = 0; p < 3; ++p) {
    os << "  clk" << p << " { phandle = <" << 11 + p << ">; #clock-cells = <"
       << clock_cells[p] << ">; };\n";
  }
  for (uint32_t b = 0; b < 3; ++b) {
    os << "  bus" << b << " {\n";
    if (pick(2) == 0) {
      os << "    interrupt-parent = <" << 1 + pick(3) << ">;\n";
    }
    const uint32_t devices = 2 + pick(3);
    for (uint32_t d = 0; d < devices; ++d) {
      os << "    dev" << d << " {\n";
      if (pick(3) == 0) {
        os << "      interrupt-parent = <" << 1 + pick(3) << ">;\n";
      }
      if (pick(4) != 0) {
        // 1..4 cells: one or more whole tuples, sometimes a truncated tail.
        os << "      interrupts = <";
        const uint32_t cells = 1 + pick(4);
        for (uint32_t c = 0; c < cells; ++c) os << (c ? " " : "") << pick(3);
        os << ">;\n";
      }
      if (pick(3) != 0) {
        os << "      assigned-clocks = <";
        const uint32_t entries = 1 + pick(2);
        for (uint32_t e = 0; e < entries; ++e) {
          const uint32_t p = pick(3);
          os << (e ? " " : "") << 11 + p;
          for (uint32_t c = 0; c < clock_cells[p]; ++c) os << " " << pick(3);
        }
        os << ">;\n";
      }
      os << "    };\n";
    }
    os << "  };\n";
  }
  os << "};\n";
  return os.str();
}

}  // namespace llhsc::checkers
