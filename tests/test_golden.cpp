// Golden-file tests for the NDJSON wire protocol (docs/serving.md): each
// tests/golden/*.txt transcript drives a fresh Service and pins the
// EXACT response bytes -- the canonical envelopes for errors, overload
// rejection, deadline_unmeetable admission and explain.  The protocol's
// bytes are API: a reordered key, a changed error category or a float
// formatting drift breaks every client that greps a response, and this
// suite is where such a change must show up (and be consciously
// re-blessed) rather than slip out silently.
//
// Transcript grammar (one directive per line):
//   # ...            comment (blank lines ignored)
//   !options k=v ... service options, before any request: queue= batch=
//                    cache= shards= deadline= coalesce=on|off
//                    planner=on|off
//   !pause / !resume hold / release the worker (admission keeps running,
//                    which is how the overloaded transcript fills the
//                    queue deterministically)
//   > <json>         submit one request line
//   < <bytes>        await the next response (FIFO); must match EXACTLY,
//                    mismatches report the first differing byte offset
//   ~ <regex>        await the next response; a POSIX extended regex
//                    that must match it in full (golden_match.hpp; for
//                    explain / deadline_unmeetable, whose payloads embed
//                    measured or predicted timings)
//
// Every `<` expectation is machine-independent by the serve layer's
// determinism contract; anything timing-dependent must use `~`.
// Blessing new bytes: PMONGE_GOLDEN_REGEN=1 rewrites the `<` lines of
// every transcript in the SOURCE tree from the live service, then fails
// the run (regenerated goldens must be reviewed, never silently green).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden_match.hpp"
#include "serve/service.hpp"

namespace pmonge {
namespace {

using serve::Service;
using serve::ServiceOptions;

std::filesystem::path golden_dir() {
  return std::filesystem::path(PMONGE_SOURCE_DIR) / "tests" / "golden";
}

std::vector<std::string> golden_files() {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(golden_dir())) {
    if (e.path().extension() == ".txt") {
      names.push_back(e.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// First differing byte of two strings, rendered for a failure message.
std::string first_diff(const std::string& want, const std::string& got) {
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  std::ostringstream os;
  os << "first difference at byte " << i << ":\n  want: " << want
     << "\n  got : " << got << "\n  diff : " << std::string(i, ' ') << "^";
  return os.str();
}

ServiceOptions parse_options(const std::string& rest, const std::string& file,
                             std::size_t lineno) {
  ServiceOptions opts;
  std::istringstream is(rest);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      ADD_FAILURE() << file << ":" << lineno << ": malformed option \"" << tok
                    << "\" (want key=value)";
      continue;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "queue") {
      opts.queue_capacity = std::stoull(val);
    } else if (key == "batch") {
      opts.batch_max = std::stoull(val);
    } else if (key == "cache") {
      opts.cache_capacity = std::stoull(val);
    } else if (key == "shards") {
      opts.cache_shards = std::stoull(val);
    } else if (key == "deadline") {
      opts.default_deadline_ms = std::stoll(val);
    } else if (key == "coalesce") {
      opts.coalesce = val == "on";
    } else if (key == "planner") {
      opts.planner = val == "on";
    } else {
      ADD_FAILURE() << file << ":" << lineno << ": unknown option \"" << key
                    << "\"";
    }
  }
  return opts;
}

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, TranscriptMatches) {
  const std::string file = GetParam();
  const std::filesystem::path path = golden_dir() / file;
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  const bool regen = std::getenv("PMONGE_GOLDEN_REGEN") != nullptr;

  std::unique_ptr<Service> service;
  const auto live = [&]() -> Service& {
    if (!service) service = std::make_unique<Service>();
    return *service;
  };
  std::vector<std::future<std::string>> pending;
  std::size_t next = 0;  // responses consumed so far
  const auto next_response = [&]() -> std::string {
    EXPECT_LT(next, pending.size()) << file << ": expectation with no "
                                       "matching request";
    return next < pending.size() ? pending[next++].get() : std::string();
  };

  std::vector<std::string> out_lines;  // rewritten transcript (regen)
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      out_lines.push_back(line);
      continue;
    }
    if (line == "!pause") {
      live().pause();
      out_lines.push_back(line);
    } else if (line == "!resume") {
      live().resume();
      out_lines.push_back(line);
    } else if (line.rfind("!options", 0) == 0) {
      EXPECT_EQ(service, nullptr)
          << file << ":" << lineno << ": !options after first request";
      service =
          std::make_unique<Service>(parse_options(line.substr(8), file,
                                                  lineno));
      out_lines.push_back(line);
    } else if (line.rfind("> ", 0) == 0) {
      pending.push_back(live().submit(line.substr(2)));
      out_lines.push_back(line);
    } else if (line.rfind("< ", 0) == 0 || line == "<") {
      const std::string want =
          line.size() > 2 ? line.substr(2) : std::string();
      const std::string got = next_response();
      if (regen) {
        out_lines.push_back("< " + got);
      } else {
        EXPECT_EQ(got, want) << file << ":" << lineno << ": "
                             << first_diff(want, got);
        out_lines.push_back(line);
      }
    } else if (line.rfind("~ ", 0) == 0) {
      const std::string pattern = line.substr(2);
      const std::string got = next_response();
      EXPECT_TRUE(golden::full_match(got, pattern))
          << file << ":" << lineno << ": response does not match /" << pattern
          << "/\n  got: " << got;
      out_lines.push_back(line);
    } else {
      ADD_FAILURE() << file << ":" << lineno << ": unknown directive: "
                    << line;
      out_lines.push_back(line);
    }
  }
  EXPECT_EQ(next, pending.size())
      << file << ": " << (pending.size() - next)
      << " response(s) never checked (missing < or ~ lines)";

  if (regen) {
    std::ofstream rewrite(path, std::ios::trunc);
    for (const std::string& l : out_lines) rewrite << l << "\n";
    ADD_FAILURE() << file << ": regenerated by PMONGE_GOLDEN_REGEN=1 -- "
                     "review the diff and rerun without the flag";
  }
}

TEST(GoldenMatch, SpansA64KiBLine) {
  // Multi-KB answers (stats, trace) are what a `~` line must be able to
  // pin loosely; a per-character recursion dies on them.
  const std::string line = R"({"id":1,"ok":true,"result":{"text":")" +
                           std::string(64 * 1024, 'x') + R"("}})";
  EXPECT_TRUE(
      golden::full_match(line, R"(\{"id":1,"ok":true,"result":\{.*\}\})"));
  EXPECT_TRUE(golden::full_match(line, R"(.*"text":"x+"\}\})"));
  // Anchored at both ends.
  EXPECT_FALSE(golden::full_match(line, R"(.*"text":"x+"\})"));
  EXPECT_FALSE(golden::full_match(line, R"("text":"x+"\}\})"));
}

INSTANTIATE_TEST_SUITE_P(Transcripts, Golden,
                         ::testing::ValuesIn(golden_files()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace pmonge
