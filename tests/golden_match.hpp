// The `~` line matcher shared by test_golden and test_rpc's
// GoldenOverTcp: a POSIX extended regex that must match the whole
// response.  regexec does not recurse per character, so a pattern like
// `.*` spans a stats or trace answer of any length; libstdc++'s
// std::regex_match overflowed the stack on a 50 KB line.
#pragma once

#include <regex.h>

#include <stdexcept>
#include <string>

namespace pmonge::golden {

/// Does the POSIX extended regex `pattern` match all of `text`?  Throws
/// std::invalid_argument on a pattern that does not compile.
inline bool full_match(const std::string& text, const std::string& pattern) {
  regex_t re;
  if (regcomp(&re, ("^(" + pattern + ")$").c_str(),
              REG_EXTENDED | REG_NOSUB) != 0) {
    throw std::invalid_argument("bad golden pattern: " + pattern);
  }
  const bool matched = regexec(&re, text.c_str(), 0, nullptr, 0) == 0;
  regfree(&re);
  return matched;
}

}  // namespace pmonge::golden
