// Environment-variable knob parsing shared by the execution engine, the
// serve layer and the test/bench harnesses (PMONGE_THREADS,
// PMONGE_FUZZ_SEED, ...).
//
// All knobs are read-once at first use: the engine caches the parsed
// value so a mid-run setenv cannot make two halves of one computation
// disagree about a setting.  Malformed values fail *loudly*: a knob the
// operator set but we cannot honor must not be silently replaced by a
// default -- a typo'd PMONGE_THREADS=1O would otherwise change performance
// (or, for PMONGE_FUZZ_SEED, the test corpus) without any indication.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

namespace pmonge::support {

/// Parse a non-negative integer environment variable.  Returns nullopt
/// when the variable is unset or empty; throws std::invalid_argument,
/// quoting the offending string, when it is set but is not a clean
/// non-negative base-10 integer (signs, whitespace, trailing junk and
/// out-of-range values all reject).
inline std::optional<std::uint64_t> env_uint(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) {
      throw std::invalid_argument(
          std::string("malformed ") + name + "=\"" + raw +
          "\": expected a non-negative base-10 integer");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (errno == ERANGE || end == raw || *end != '\0') {
    throw std::invalid_argument(std::string("malformed ") + name + "=\"" +
                                raw + "\": value out of range");
  }
  return static_cast<std::uint64_t>(v);
}

/// env_uint with a default and a lower clamp (knobs like thread counts
/// are meaningless at zero).  Unset/empty uses the
/// default; malformed still throws.
inline std::uint64_t env_uint_or(const char* name, std::uint64_t def,
                                 std::uint64_t lo = 0) {
  const auto v = env_uint(name);
  const std::uint64_t x = v.has_value() ? *v : def;
  return x < lo ? lo : x;
}

}  // namespace pmonge::support
