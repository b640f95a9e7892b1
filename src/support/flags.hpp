// Table-driven CLI flag parser shared by the llhsc and llhscd binaries, so
// every command spells common options the same way (--jobs, --cache-dir,
// --solver-timeout-ms, --profile, …) and unknown or malformed flags fail
// the same way everywhere (usage error, exit 2).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace llhsc::support {

enum class FlagKind : uint8_t {
  kBool,   // --name (no value)
  kString, // --name <value> or --name=<value>
  kUint,   // like kString, but validated as an unsigned integer
};

struct FlagSpec {
  const char* name;  // canonical spelling, without the leading "--"
  FlagKind kind = FlagKind::kString;
};

struct ParsedFlags {
  /// False on any parse error; `error` then holds a one-line diagnostic and
  /// the caller should print usage and exit 2.
  bool ok = true;
  std::string error;
  std::vector<std::string> positional;

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string value(std::string_view name,
                                  std::string_view fallback = "") const;
  /// Pre-validated by the parser; returns `fallback` when the flag was not
  /// given.
  [[nodiscard]] uint64_t uint_value(std::string_view name,
                                    uint64_t fallback = 0) const;

  std::map<std::string, std::string, std::less<>> values;
};

/// Parses argv[first_index..) against `specs`. Arguments that do not start
/// with "--" are positional and kept in order.
[[nodiscard]] ParsedFlags parse_flags(const std::vector<FlagSpec>& specs,
                                      int argc, char** argv, int first_index);

}  // namespace llhsc::support
