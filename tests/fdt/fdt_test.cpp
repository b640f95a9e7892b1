// DTB emitter/reader/verifier tests. The central property: the binary image
// is a fixed point of emit . read — emit(read(emit(t))) == emit(t).
#include "fdt/fdt.hpp"

#include <gtest/gtest.h>

#include "dts/parser.hpp"

namespace llhsc::fdt {
namespace {

std::unique_ptr<dts::Tree> parse_ok(std::string_view src) {
  support::DiagnosticEngine de;
  auto t = dts::parse_dts(src, "t.dts", de);
  EXPECT_FALSE(de.has_errors()) << de.render();
  return t;
}

std::vector<uint8_t> emit_ok(const dts::Tree& tree) {
  support::DiagnosticEngine de;
  auto blob = emit(tree, de);
  EXPECT_TRUE(blob.has_value()) << de.render();
  return blob.value_or(std::vector<uint8_t>{});
}

TEST(Fdt, HeaderFields) {
  dts::Tree tree;
  auto blob = emit_ok(tree);
  auto header = read_header(blob);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->magic, kMagic);
  EXPECT_EQ(header->version, kVersion);
  EXPECT_EQ(header->last_comp_version, kLastCompatibleVersion);
  EXPECT_EQ(header->totalsize, blob.size());
  EXPECT_EQ(header->off_dt_struct % 4, 0u);
  EXPECT_EQ(header->off_mem_rsvmap % 8, 0u);
}

TEST(Fdt, EmptyTreeRoundTrip) {
  dts::Tree tree;
  auto blob = emit_ok(tree);
  support::DiagnosticEngine de;
  auto back = read(blob, de);
  ASSERT_NE(back, nullptr) << de.render();
  EXPECT_EQ(back->root().children().size(), 0u);
}

TEST(Fdt, BinaryFixedPoint) {
  auto tree = parse_ok(R"(
/ {
    #address-cells = <2>;
    #size-cells = <2>;
    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000>;
    };
    cpus {
        #address-cells = <1>;
        #size-cells = <0>;
        cpu@0 { compatible = "arm,cortex-a53"; reg = <0>; };
    };
    chosen { bootargs = "console=ttyS0"; ranges; };
};
)");
  auto blob1 = emit_ok(*tree);
  support::DiagnosticEngine de;
  auto back = read(blob1, de);
  ASSERT_NE(back, nullptr) << de.render();
  auto blob2 = emit_ok(*back);
  EXPECT_EQ(blob1, blob2) << "emit . read must be a binary fixed point";
}

TEST(Fdt, PropertyValuesSurviveAsBytes) {
  auto tree = parse_ok(R"(
/ { n { cells = <0xdeadbeef 0x1>; text = "hi"; flag; raw = [0a 0b]; }; };
)");
  auto blob = emit_ok(*tree);
  support::DiagnosticEngine de;
  auto back = read(blob, de);
  ASSERT_NE(back, nullptr);
  const dts::Node* n = back->find("/n");
  ASSERT_NE(n, nullptr);
  auto cells = bytes_as_cells(*n->find_property("cells"));
  ASSERT_TRUE(cells.has_value());
  EXPECT_EQ(*cells, (std::vector<uint32_t>{0xdeadbeef, 1}));
  EXPECT_EQ(bytes_as_string(*n->find_property("text")), "hi");
  EXPECT_TRUE(n->find_property("flag")->is_boolean());
  EXPECT_EQ(n->find_property("raw")->chunks[0].bytes,
            (std::vector<uint8_t>{0x0a, 0x0b}));
}

TEST(Fdt, BitsDirectiveSerialization) {
  auto tree = parse_ok(R"(
/ { n {
    b = /bits/ 8 <0x12 0x34>;
    h = /bits/ 16 <0xabcd>;
    q = /bits/ 64 <0x1122334455667788>;
}; };
)");
  auto blob = emit_ok(*tree);
  support::DiagnosticEngine de;
  auto back = read(blob, de);
  ASSERT_NE(back, nullptr);
  const dts::Node* n = back->find("/n");
  EXPECT_EQ(n->find_property("b")->chunks[0].bytes,
            (std::vector<uint8_t>{0x12, 0x34}));
  EXPECT_EQ(n->find_property("h")->chunks[0].bytes,
            (std::vector<uint8_t>{0xab, 0xcd}));
  EXPECT_EQ(n->find_property("q")->chunks[0].bytes,
            (std::vector<uint8_t>{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                  0x88}));
}

TEST(Fdt, MemReservationsRoundTrip) {
  dts::Tree tree;
  tree.memreserves().push_back({0x10000000, 0x4000});
  tree.memreserves().push_back({0x80000000, 0x100000});
  auto blob = emit_ok(tree);
  support::DiagnosticEngine de;
  auto back = read(blob, de);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->memreserves(), tree.memreserves());
}

TEST(Fdt, StringsBlockIsDeduplicated) {
  // Two nodes sharing property names must intern them once: compare against
  // a one-node blob's strings size.
  auto two = parse_ok("/ { a { reg = <1>; status = \"okay\"; }; "
                      "b { reg = <2>; status = \"okay\"; }; };");
  auto one = parse_ok("/ { a { reg = <1>; status = \"okay\"; }; };");
  auto blob_two = emit_ok(*two);
  auto blob_one = emit_ok(*one);
  auto h2 = read_header(blob_two);
  auto h1 = read_header(blob_one);
  EXPECT_EQ(h2->size_dt_strings, h1->size_dt_strings)
      << "shared property names must not grow the strings block";
}

TEST(Fdt, VerifyAcceptsGoodBlob) {
  auto tree = parse_ok("/ { n { v = <1>; }; };");
  auto blob = emit_ok(*tree);
  support::DiagnosticEngine de;
  EXPECT_TRUE(verify(blob, de)) << de.render();
}

TEST(Fdt, VerifyRejectsBadMagic) {
  auto tree = parse_ok("/ { };");
  auto blob = emit_ok(*tree);
  blob[0] = 0x00;
  support::DiagnosticEngine de;
  EXPECT_FALSE(verify(blob, de));
}

TEST(Fdt, VerifyRejectsTruncatedBlob) {
  auto tree = parse_ok("/ { n { v = <1>; }; };");
  auto blob = emit_ok(*tree);
  blob.resize(blob.size() / 2);
  support::DiagnosticEngine de;
  EXPECT_FALSE(verify(blob, de));
}

TEST(Fdt, VerifyRejectsCorruptToken) {
  auto tree = parse_ok("/ { n { v = <1>; }; };");
  auto blob = emit_ok(*tree);
  auto header = read_header(blob);
  // Stomp the first structure token with garbage.
  blob[header->off_dt_struct + 3] = 0x77;
  support::DiagnosticEngine de;
  EXPECT_FALSE(verify(blob, de));
}

TEST(Fdt, ReadRejectsEmptyBuffer) {
  support::DiagnosticEngine de;
  EXPECT_EQ(read({}, de), nullptr);
  EXPECT_TRUE(de.has_errors());
}

TEST(Fdt, EmitRejectsUnresolvedRefs) {
  dts::Tree tree;
  dts::Property p;
  p.name = "link";
  p.chunks.push_back(dts::Chunk::make_cells({dts::Cell::reference("ghost")}));
  tree.root().get_or_create_child("n").set_property(std::move(p));
  support::DiagnosticEngine de;
  EXPECT_FALSE(emit(tree, de).has_value());
  EXPECT_TRUE(de.contains_code("fdt-emit"));
}

TEST(Fdt, EmitRejectsOversizedCells) {
  dts::Tree tree;
  tree.root().get_or_create_child("n").set_property(
      dts::Property::cells("big", {0x1'0000'0000ull}));
  support::DiagnosticEngine de;
  EXPECT_FALSE(emit(tree, de).has_value());
  EXPECT_TRUE(de.contains_code("fdt-emit"));
}

TEST(Fdt, BootCpuidRoundTrip) {
  // emit() writes boot_cpuid_phys 0; the reader reports whatever a
  // bootloader patched into the header.
  dts::Tree tree;
  support::DiagnosticEngine de;
  auto blob = emit(tree, de);
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(read_header(*blob)->boot_cpuid_phys, 0u);
  (*blob)[31] = 3;  // big-endian u32 at header offset 28
  EXPECT_EQ(read_header(*blob)->boot_cpuid_phys, 3u);
  EXPECT_TRUE(verify(*blob, de)) << de.render();
}

TEST(Fdt, PhandleResolvedTreeEmits) {
  // References resolved to phandles emit cleanly end-to-end.
  support::DiagnosticEngine de;
  auto tree = dts::parse_dts(R"(
/ {
    intc: pic@1000 { };
    dev { interrupt-parent = <&intc>; };
};
)",
                             "t.dts", de);
  ASSERT_NE(tree, nullptr);
  ASSERT_FALSE(de.has_errors()) << de.render();
  auto blob = emit_ok(*tree);
  auto back = read(blob, de);
  ASSERT_NE(back, nullptr);
  auto cells = bytes_as_cells(*back->find("/dev")->find_property("interrupt-parent"));
  ASSERT_TRUE(cells.has_value());
  auto target_phandle =
      bytes_as_cells(*back->find("/pic@1000")->find_property("phandle"));
  ASSERT_TRUE(target_phandle.has_value());
  EXPECT_EQ((*cells)[0], (*target_phandle)[0]);
}

}  // namespace
}  // namespace llhsc::fdt
