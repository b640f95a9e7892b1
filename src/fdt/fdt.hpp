// Flattened DeviceTree (DTB) support — a libfdt-equivalent subset written
// from scratch (libfdt is not vendored). Implements the DTB v17 on-disk
// format from the DeviceTree Specification v0.4 chapter 5:
//
//   header (10 big-endian u32 fields, magic 0xd00dfeed)
//   memory reservation block ((u64 address, u64 size) pairs, (0,0) sentinel)
//   structure block (FDT_BEGIN_NODE / FDT_PROP / FDT_END_NODE / FDT_END)
//   strings block (deduplicated property names)
//
// emit() serialises a dts::Tree (references must already be resolved to
// phandles); read() parses a blob back into a Tree whose property values are
// raw byte chunks (the DTB format erases source-level typing — the verifier
// and the emit(read(emit(t))) == emit(t) round-trip tests rely only on the
// binary image).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dts/tree.hpp"
#include "support/diagnostics.hpp"

namespace llhsc::fdt {

inline constexpr uint32_t kMagic = 0xd00dfeed;
inline constexpr uint32_t kVersion = 17;
inline constexpr uint32_t kLastCompatibleVersion = 16;

inline constexpr uint32_t kTokBeginNode = 0x1;
inline constexpr uint32_t kTokEndNode = 0x2;
inline constexpr uint32_t kTokProp = 0x3;
inline constexpr uint32_t kTokNop = 0x4;
inline constexpr uint32_t kTokEnd = 0x9;

/// Serialises a tree to a DTB image with boot_cpuid_phys 0 and no padding
/// after the strings block. Fails (nullopt + diagnostics) on unresolved
/// references or cell values wider than 32 bits.
[[nodiscard]] std::optional<std::vector<uint8_t>> emit(
    const dts::Tree& tree, support::DiagnosticEngine& diags);

/// Parses a DTB image back into a Tree. Property values become single
/// byte-string chunks. Returns nullptr on malformed input.
[[nodiscard]] std::unique_ptr<dts::Tree> read(
    std::span<const uint8_t> blob, support::DiagnosticEngine& diags);

/// Structural verifier: checks magic, version, block bounds, token stream
/// well-formedness and strings-block references without building a tree.
/// Returns true when the blob is a well-formed DTB.
[[nodiscard]] bool verify(std::span<const uint8_t> blob,
                          support::DiagnosticEngine& diags);

/// Header introspection for tooling/tests.
struct Header {
  uint32_t magic = 0;
  uint32_t totalsize = 0;
  uint32_t off_dt_struct = 0;
  uint32_t off_dt_strings = 0;
  uint32_t off_mem_rsvmap = 0;
  uint32_t version = 0;
  uint32_t last_comp_version = 0;
  uint32_t boot_cpuid_phys = 0;
  uint32_t size_dt_strings = 0;
  uint32_t size_dt_struct = 0;
};

[[nodiscard]] std::optional<Header> read_header(std::span<const uint8_t> blob);

// -- typed views over raw DTB property bytes (reader output) --
/// Interprets a byte chunk as a big-endian u32 array (nullopt if misaligned).
[[nodiscard]] std::optional<std::vector<uint32_t>> bytes_as_cells(
    const dts::Property& property);
/// Interprets a byte chunk as a NUL-terminated string.
[[nodiscard]] std::optional<std::string> bytes_as_string(
    const dts::Property& property);

}  // namespace llhsc::fdt
