#include "dts/printer.hpp"

#include <sstream>

#include "support/strings.hpp"

namespace llhsc::dts {

namespace {

constexpr int kIndent = 4;  // spaces per nesting level

void print_chunk(std::ostringstream& os, const Chunk& chunk) {
  switch (chunk.kind) {
    case ChunkKind::kCells: {
      if (chunk.element_bits != 32) {
        os << "/bits/ " << static_cast<int>(chunk.element_bits) << ' ';
      }
      os << '<';
      for (size_t i = 0; i < chunk.cells.size(); ++i) {
        if (i > 0) os << ' ';
        const Cell& c = chunk.cells[i];
        if (c.is_ref) {
          os << '&' << c.ref;
        } else {
          os << support::hex(c.value);
        }
      }
      os << '>';
      break;
    }
    case ChunkKind::kString: {
      os << '"';
      for (char ch : chunk.text) {
        switch (ch) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default: os << ch; break;
        }
      }
      os << '"';
      break;
    }
    case ChunkKind::kBytes: {
      os << '[';
      for (size_t i = 0; i < chunk.bytes.size(); ++i) {
        if (i > 0) os << ' ';
        static const char* digits = "0123456789abcdef";
        os << digits[chunk.bytes[i] >> 4] << digits[chunk.bytes[i] & 0xf];
      }
      os << ']';
      break;
    }
    case ChunkKind::kRef:
      os << '&' << chunk.text;
      break;
  }
}

void print_property_impl(std::ostringstream& os, const Property& p) {
  os << p.name;
  if (!p.chunks.empty()) {
    os << " = ";
    for (size_t i = 0; i < p.chunks.size(); ++i) {
      if (i > 0) os << ", ";
      print_chunk(os, p.chunks[i]);
    }
  }
  os << ';';
}

void print_node_impl(std::ostringstream& os, const Node& node, int depth) {
  std::string pad(static_cast<size_t>(depth) * kIndent, ' ');
  os << pad;
  for (support::Atom label : node.labels()) os << label << ": ";
  os << node.name() << " {\n";
  std::string inner_pad(static_cast<size_t>(depth + 1) * kIndent, ' ');
  for (const Property& p : node.properties()) {
    os << inner_pad;
    print_property_impl(os, p);
    os << '\n';
  }
  if (!node.properties().empty() && !node.children().empty()) os << '\n';
  for (size_t i = 0; i < node.children().size(); ++i) {
    if (i > 0) os << '\n';
    print_node_impl(os, *node.children()[i], depth + 1);
  }
  os << pad << "};\n";
}

}  // namespace

std::string print_property(const Property& property) {
  std::ostringstream os;
  print_property_impl(os, property);
  return os.str();
}

std::string print_node(const Node& node, int depth) {
  std::ostringstream os;
  print_node_impl(os, node, depth);
  return os.str();
}

std::string print_dts(const Tree& tree) {
  std::ostringstream os;
  os << "/dts-v1/;\n\n";
  for (const MemReserve& mr : tree.memreserves()) {
    os << "/memreserve/ " << support::hex(mr.address) << ' '
       << support::hex(mr.size) << ";\n";
  }
  print_node_impl(os, tree.root(), 0);
  return os.str();
}

}  // namespace llhsc::dts
