#include "support/flags.hpp"

#include <cctype>

namespace llhsc::support {

namespace {

bool is_unsigned_integer(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

bool ParsedFlags::has(std::string_view name) const {
  return values.find(name) != values.end();
}

std::string ParsedFlags::value(std::string_view name,
                               std::string_view fallback) const {
  auto it = values.find(name);
  return it == values.end() ? std::string(fallback) : it->second;
}

uint64_t ParsedFlags::uint_value(std::string_view name,
                                 uint64_t fallback) const {
  auto it = values.find(name);
  if (it == values.end()) return fallback;
  return std::stoull(it->second);
}

ParsedFlags parse_flags(const std::vector<FlagSpec>& specs, int argc,
                        char** argv, int first_index) {
  ParsedFlags out;
  for (int i = first_index; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      out.positional.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    // --name=value is accepted for valued flags.
    std::string_view inline_value;
    bool has_inline_value = false;
    if (size_t eq = body.find('='); eq != std::string_view::npos) {
      inline_value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_inline_value = true;
    }

    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : specs) {
      if (body == s.name) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      out.ok = false;
      out.error = "unknown option --" + std::string(body);
      return out;
    }

    std::string value;
    if (spec->kind == FlagKind::kBool) {
      if (has_inline_value) {
        out.ok = false;
        out.error = "option --" + std::string(spec->name) +
                    " does not take a value";
        return out;
      }
      value = "1";
    } else if (has_inline_value) {
      value = std::string(inline_value);
    } else {
      if (i + 1 >= argc) {
        out.ok = false;
        out.error = "option --" + std::string(body) + " needs a value";
        return out;
      }
      value = argv[++i];
    }
    if (spec->kind == FlagKind::kUint && !is_unsigned_integer(value)) {
      out.ok = false;
      out.error = "bad --" + std::string(spec->name) + " value '" + value +
                  "' (want an unsigned integer)";
      return out;
    }
    out.values[spec->name] = std::move(value);
  }
  return out;
}

}  // namespace llhsc::support
