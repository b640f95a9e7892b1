#include "fdt/fdt.hpp"

#include <cstring>
#include <map>
#include <string>

#include "support/strings.hpp"

namespace llhsc::fdt {

namespace {

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  put_u32(out, static_cast<uint32_t>(v >> 32));
  put_u32(out, static_cast<uint32_t>(v));
}

void patch_u32(std::vector<uint8_t>& out, size_t offset, uint32_t v) {
  out[offset] = static_cast<uint8_t>(v >> 24);
  out[offset + 1] = static_cast<uint8_t>(v >> 16);
  out[offset + 2] = static_cast<uint8_t>(v >> 8);
  out[offset + 3] = static_cast<uint8_t>(v);
}

void pad_to(std::vector<uint8_t>& out, size_t alignment) {
  while (out.size() % alignment != 0) out.push_back(0);
}

uint32_t get_u32(std::span<const uint8_t> blob, size_t offset) {
  return (static_cast<uint32_t>(blob[offset]) << 24) |
         (static_cast<uint32_t>(blob[offset + 1]) << 16) |
         (static_cast<uint32_t>(blob[offset + 2]) << 8) |
         static_cast<uint32_t>(blob[offset + 3]);
}

uint64_t get_u64(std::span<const uint8_t> blob, size_t offset) {
  return (static_cast<uint64_t>(get_u32(blob, offset)) << 32) |
         get_u32(blob, offset + 4);
}

/// Deduplicating strings-block builder.
class StringTable {
 public:
  uint32_t intern(const std::string& s) {
    auto it = offsets_.find(s);
    if (it != offsets_.end()) return it->second;
    uint32_t off = static_cast<uint32_t>(data_.size());
    data_.insert(data_.end(), s.begin(), s.end());
    data_.push_back(0);
    offsets_.emplace(s, off);
    return off;
  }
  [[nodiscard]] const std::vector<uint8_t>& data() const { return data_; }

 private:
  std::vector<uint8_t> data_;
  std::map<std::string, uint32_t> offsets_;
};

/// Serialises one property's value chunks into DTB bytes.
bool serialize_value(const dts::Property& p, std::vector<uint8_t>& out,
                     support::DiagnosticEngine& diags) {
  for (const dts::Chunk& chunk : p.chunks) {
    switch (chunk.kind) {
      case dts::ChunkKind::kCells:
        for (const dts::Cell& cell : chunk.cells) {
          if (cell.is_ref) {
            diags.error("fdt-emit",
                        "unresolved reference &" + cell.ref + " in property '" +
                            p.name + "': no node carries the label '" +
                            cell.ref + "'",
                        p.location);
            return false;
          }
          // Element width follows the /bits/ directive (big-endian).
          uint64_t max = chunk.element_bits >= 64
                             ? UINT64_MAX
                             : (1ull << chunk.element_bits) - 1;
          if (cell.value > max) {
            diags.error("fdt-emit",
                        "cell value " + support::hex(cell.value) +
                            " in property '" + p.name + "' exceeds /bits/ " +
                            std::to_string(chunk.element_bits),
                        p.location);
            return false;
          }
          for (int b = chunk.element_bits - 8; b >= 0; b -= 8) {
            out.push_back(static_cast<uint8_t>(cell.value >> b));
          }
        }
        break;
      case dts::ChunkKind::kString:
        out.insert(out.end(), chunk.text.begin(), chunk.text.end());
        out.push_back(0);
        break;
      case dts::ChunkKind::kBytes:
        out.insert(out.end(), chunk.bytes.begin(), chunk.bytes.end());
        break;
      case dts::ChunkKind::kRef:
        diags.error("fdt-emit",
                    "unresolved path reference &" + chunk.text +
                        " in property '" + p.name + "'",
                    p.location);
        return false;
    }
  }
  return true;
}

bool emit_node(const dts::Node& node, std::vector<uint8_t>& structure,
               StringTable& strings, support::DiagnosticEngine& diags,
               bool is_root) {
  put_u32(structure, kTokBeginNode);
  // The root node's name is empty in DTB.
  const std::string name = is_root ? std::string() : node.name().str();
  structure.insert(structure.end(), name.begin(), name.end());
  structure.push_back(0);
  pad_to(structure, 4);

  for (const dts::Property& p : node.properties()) {
    std::vector<uint8_t> value;
    if (!serialize_value(p, value, diags)) return false;
    put_u32(structure, kTokProp);
    put_u32(structure, static_cast<uint32_t>(value.size()));
    put_u32(structure, strings.intern(p.name.str()));
    structure.insert(structure.end(), value.begin(), value.end());
    pad_to(structure, 4);
  }
  for (const auto& child : node.children()) {
    if (!emit_node(*child, structure, strings, diags, false)) return false;
  }
  put_u32(structure, kTokEndNode);
  return true;
}

}  // namespace

std::optional<std::vector<uint8_t>> emit(const dts::Tree& tree,
                                         support::DiagnosticEngine& diags) {
  // Build the structure and strings blocks first.
  std::vector<uint8_t> structure;
  StringTable strings;
  if (!emit_node(tree.root(), structure, strings, diags, true)) {
    return std::nullopt;
  }
  put_u32(structure, kTokEnd);

  constexpr uint32_t kHeaderSize = 40;
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + structure.size() + strings.data().size() + 64);
  for (uint32_t i = 0; i < kHeaderSize; ++i) out.push_back(0);

  // Memory reservation block (8-byte aligned).
  pad_to(out, 8);
  uint32_t off_mem_rsvmap = static_cast<uint32_t>(out.size());
  for (const dts::MemReserve& mr : tree.memreserves()) {
    put_u64(out, mr.address);
    put_u64(out, mr.size);
  }
  put_u64(out, 0);
  put_u64(out, 0);

  pad_to(out, 4);
  uint32_t off_dt_struct = static_cast<uint32_t>(out.size());
  out.insert(out.end(), structure.begin(), structure.end());
  uint32_t size_dt_struct = static_cast<uint32_t>(structure.size());

  uint32_t off_dt_strings = static_cast<uint32_t>(out.size());
  out.insert(out.end(), strings.data().begin(), strings.data().end());
  uint32_t size_dt_strings = static_cast<uint32_t>(strings.data().size());

  patch_u32(out, 0, kMagic);
  patch_u32(out, 4, static_cast<uint32_t>(out.size()));
  patch_u32(out, 8, off_dt_struct);
  patch_u32(out, 12, off_dt_strings);
  patch_u32(out, 16, off_mem_rsvmap);
  patch_u32(out, 20, kVersion);
  patch_u32(out, 24, kLastCompatibleVersion);
  patch_u32(out, 28, 0);  // boot_cpuid_phys
  patch_u32(out, 32, size_dt_strings);
  patch_u32(out, 36, size_dt_struct);
  return out;
}

std::optional<Header> read_header(std::span<const uint8_t> blob) {
  if (blob.size() < 40) return std::nullopt;
  Header h;
  h.magic = get_u32(blob, 0);
  h.totalsize = get_u32(blob, 4);
  h.off_dt_struct = get_u32(blob, 8);
  h.off_dt_strings = get_u32(blob, 12);
  h.off_mem_rsvmap = get_u32(blob, 16);
  h.version = get_u32(blob, 20);
  h.last_comp_version = get_u32(blob, 24);
  h.boot_cpuid_phys = get_u32(blob, 28);
  h.size_dt_strings = get_u32(blob, 32);
  h.size_dt_struct = get_u32(blob, 36);
  return h;
}

namespace {

struct StructWalker {
  std::span<const uint8_t> blob;
  size_t pos;
  size_t end;
  size_t strings_off;
  size_t strings_end;
  support::DiagnosticEngine* diags;
  bool failed = false;

  uint32_t next_token() {
    if (pos + 4 > end) {
      fail("structure block overruns its bounds");
      return kTokEnd;
    }
    uint32_t tok = get_u32(blob, pos);
    pos += 4;
    return tok;
  }

  void fail(const std::string& msg) {
    if (!failed) diags->error("fdt-read", msg);
    failed = true;
  }

  std::string read_name() {
    size_t start = pos;
    while (pos < end && blob[pos] != 0) ++pos;
    if (pos >= end) {
      fail("unterminated node name");
      return {};
    }
    std::string name(reinterpret_cast<const char*>(blob.data() + start),
                     pos - start);
    ++pos;  // NUL
    while (pos % 4 != 0) ++pos;
    return name;
  }

  std::string string_at(uint32_t off) {
    size_t abs = strings_off + off;
    if (abs >= strings_end) {
      fail("property name offset outside strings block");
      return {};
    }
    size_t e = abs;
    while (e < strings_end && blob[e] != 0) ++e;
    if (e >= strings_end) {
      fail("unterminated string in strings block");
      return {};
    }
    return std::string(reinterpret_cast<const char*>(blob.data() + abs),
                       e - abs);
  }
};

}  // namespace

std::unique_ptr<dts::Tree> read(std::span<const uint8_t> blob,
                                support::DiagnosticEngine& diags) {
  auto header = read_header(blob);
  if (!header || header->magic != kMagic) {
    diags.error("fdt-read", "bad magic (not a DTB)");
    return nullptr;
  }
  if (header->totalsize > blob.size()) {
    diags.error("fdt-read", "totalsize exceeds buffer");
    return nullptr;
  }
  if (header->last_comp_version > kVersion) {
    diags.error("fdt-read", "incompatible DTB version");
    return nullptr;
  }

  auto tree = std::make_unique<dts::Tree>();

  // Memory reservation block.
  size_t pos = header->off_mem_rsvmap;
  while (pos + 16 <= blob.size()) {
    uint64_t addr = get_u64(blob, pos);
    uint64_t size = get_u64(blob, pos + 8);
    pos += 16;
    if (addr == 0 && size == 0) break;
    tree->memreserves().push_back({addr, size});
  }

  StructWalker w{blob,
                 header->off_dt_struct,
                 std::min<size_t>(
                     static_cast<size_t>(header->off_dt_struct) +
                         header->size_dt_struct,
                     blob.size()),
                 header->off_dt_strings,
                 std::min<size_t>(
                     static_cast<size_t>(header->off_dt_strings) +
                         header->size_dt_strings,
                     blob.size()),
                 &diags};

  std::vector<dts::Node*> stack;
  bool seen_root = false;
  while (!w.failed) {
    uint32_t tok = w.next_token();
    if (tok == kTokNop) continue;
    if (tok == kTokEnd) {
      if (!stack.empty()) w.fail("FDT_END inside an open node");
      break;
    }
    if (tok == kTokBeginNode) {
      std::string name = w.read_name();
      if (stack.empty()) {
        if (seen_root) {
          w.fail("multiple root nodes");
          break;
        }
        seen_root = true;
        stack.push_back(&tree->root());
      } else {
        stack.push_back(
            &stack.back()->add_child(std::make_unique<dts::Node>(name)));
      }
    } else if (tok == kTokEndNode) {
      if (stack.empty()) {
        w.fail("unbalanced FDT_END_NODE");
        break;
      }
      stack.pop_back();
    } else if (tok == kTokProp) {
      if (stack.empty()) {
        w.fail("property outside of a node");
        break;
      }
      if (w.pos + 8 > w.end) {
        w.fail("truncated FDT_PROP");
        break;
      }
      uint32_t len = get_u32(blob, w.pos);
      uint32_t nameoff = get_u32(blob, w.pos + 4);
      w.pos += 8;
      if (w.pos + len > w.end) {
        w.fail("property value overruns structure block");
        break;
      }
      dts::Property p;
      p.name = w.string_at(nameoff);
      if (len > 0) {
        std::vector<uint8_t> bytes(blob.begin() + static_cast<long>(w.pos),
                                   blob.begin() + static_cast<long>(w.pos + len));
        p.chunks.push_back(dts::Chunk::make_bytes(std::move(bytes)));
      }
      stack.back()->set_property(std::move(p));
      w.pos += len;
      while (w.pos % 4 != 0) ++w.pos;
    } else {
      w.fail("unknown token " + support::hex(tok));
      break;
    }
  }
  if (w.failed || !seen_root) {
    if (!seen_root && !w.failed) diags.error("fdt-read", "no root node");
    return nullptr;
  }
  return tree;
}

bool verify(std::span<const uint8_t> blob, support::DiagnosticEngine& diags) {
  size_t errors_before = diags.error_count();
  auto header = read_header(blob);
  if (!header) {
    diags.error("fdt-verify", "blob smaller than the DTB header");
    return false;
  }
  if (header->magic != kMagic) {
    diags.error("fdt-verify", "bad magic");
    return false;
  }
  if (header->version < header->last_comp_version) {
    diags.error("fdt-verify", "version < last_comp_version");
  }
  if (header->totalsize > blob.size() || header->totalsize < 40) {
    diags.error("fdt-verify", "implausible totalsize");
    return false;
  }
  auto in_range = [&](uint32_t off, uint32_t size) {
    return off >= 40 && static_cast<uint64_t>(off) + size <= header->totalsize;
  };
  if (!in_range(header->off_dt_struct, header->size_dt_struct)) {
    diags.error("fdt-verify", "structure block out of range");
    return false;
  }
  if (!in_range(header->off_dt_strings, header->size_dt_strings)) {
    diags.error("fdt-verify", "strings block out of range");
    return false;
  }
  if (header->off_dt_struct % 4 != 0) {
    diags.error("fdt-verify", "structure block misaligned");
  }
  if (header->off_mem_rsvmap % 8 != 0) {
    diags.error("fdt-verify", "memory reservation block misaligned");
  }
  // Token stream sanity: delegate to the reader on a throwaway tree.
  support::DiagnosticEngine sub;
  if (read(blob, sub) == nullptr) {
    diags.error("fdt-verify", "token stream malformed: " + sub.render());
  }
  return diags.error_count() == errors_before;
}

std::optional<std::vector<uint32_t>> bytes_as_cells(
    const dts::Property& property) {
  if (property.chunks.size() != 1 ||
      property.chunks[0].kind != dts::ChunkKind::kBytes) {
    return std::nullopt;
  }
  const auto& bytes = property.chunks[0].bytes;
  if (bytes.size() % 4 != 0) return std::nullopt;
  std::vector<uint32_t> cells;
  cells.reserve(bytes.size() / 4);
  for (size_t i = 0; i < bytes.size(); i += 4) {
    cells.push_back((static_cast<uint32_t>(bytes[i]) << 24) |
                    (static_cast<uint32_t>(bytes[i + 1]) << 16) |
                    (static_cast<uint32_t>(bytes[i + 2]) << 8) |
                    static_cast<uint32_t>(bytes[i + 3]));
  }
  return cells;
}

std::optional<std::string> bytes_as_string(const dts::Property& property) {
  if (property.chunks.size() != 1 ||
      property.chunks[0].kind != dts::ChunkKind::kBytes) {
    return std::nullopt;
  }
  const auto& bytes = property.chunks[0].bytes;
  if (bytes.empty() || bytes.back() != 0) return std::nullopt;
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size() - 1);
}

}  // namespace llhsc::fdt
