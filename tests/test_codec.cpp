// The codec at the front of the serve path (serve/codec.hpp, docs/
// performance.md), tested from four sides:
//
//   1. Differential fuzz: for every line the streaming canonicalizer
//      ACCEPTS, its signature / op / id / deadline_ms / trace_id must be
//      byte-identical to what the DOM path (parse_request) computes.
//      Refusal is always legal; acceptance is the claim under test.  A
//      coverage check keeps the fuzz honest (the codec must actually
//      accept the forms the fast path exists for -- whitespace, shuffled
//      keys, escapes), and a number fuzz pins that a double never shares
//      a signature with an integer.
//   2. Codec-built vs DOM-built response identity: Services differing
//      only in `fast_path` (codec at the front, or a DOM for every line)
//      answer every request of every golden transcript and the fuzz
//      corpus, with the cache on and off, cold and warm, with
//      byte-identical NDJSON.
//   3. The allocation gate: a warmed cached-hit through
//      Service::try_serve_fast performs ZERO heap allocations, asserted
//      by a global operator-new hook.
//   4. An 8-thread hammer over the same cached queries (the TSan leg of
//      the sanitizer matrix; also asserts bytes under concurrency).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

// --------------------------------------------------------------------------
// Global operator-new hook: counts allocations on the calling thread.
// Trivially-initialized thread_local, so the hook is safe from the very
// first allocation of the process.
// --------------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_news = 0;
}

void* operator new(std::size_t n) {
  ++t_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++t_news;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pmonge {
namespace {

using serve::FastQuery;
using serve::Request;
using serve::RequestCodec;
using serve::Service;
using serve::ServiceOptions;

// --------------------------------------------------------------------------
// 1. Differential fuzz against the slow path
// --------------------------------------------------------------------------

/// Random request-ish JSON lines: valid structure with shuffled keys,
/// random whitespace, duplicate keys, escapes, deep values -- plus a
/// slice of deliberately malformed bytes.
class LineGen {
 public:
  explicit LineGen(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    if (pct(10)) return mutate(object_line());
    return object_line();
  }

 private:
  bool pct(int p) { return static_cast<int>(rng_() % 100) < p; }

  std::string ws() {
    static const char* kWs[] = {"", "", "", " ", "  ", "\t", "\n"};
    return kWs[rng_() % 7];
  }

  std::string random_string() {
    static const char* kPool[] = {
        "rowmin",   "rowmax",     "stats",  "a b",      "x\\ny",
        "quote\"q", "back\\\\b",  "tab\tt", "\\u0041b", "\\u00e9",
        "\\ud83d\\ude00",  // surrogate pair
        "",         "plain",      "/slash", "\\u0000z"};
    return kPool[rng_() % 15];
  }

  std::string value(int depth) {
    switch (rng_() % 8) {
      case 0:
        return std::to_string(static_cast<std::int64_t>(rng_()) %
                              1000000007LL);
      case 1: {
        static const char* kNums[] = {
            "0",    "-0",      "1e3",   "1.5",  "-2.25e-3",
            "1e308","1e309",   "9223372036854775807",
            "9223372036854775808",  // int64 overflow -> double
            "-9223372036854775808", "0.1", "3.141592653589793"};
        return kNums[rng_() % 12];
      }
      case 2:
        return std::string("\"") + random_string() + "\"";
      case 3:
        return pct(50) ? "true" : "false";
      case 4:
        return "null";
      case 5: {
        if (depth > 2) return "1";
        std::string a = "[";
        const std::size_t n = rng_() % 4;
        for (std::size_t i = 0; i < n; ++i) {
          if (i) a += ",";
          a += ws() + value(depth + 1) + ws();
        }
        return a + "]";
      }
      default: {
        if (depth > 2) return "2";
        std::string o = "{";
        const std::size_t n = rng_() % 3;
        for (std::size_t i = 0; i < n; ++i) {
          if (i) o += ",";
          o += ws() + "\"k" + std::to_string(rng_() % 5) + "\"" + ws() + ":" +
               ws() + value(depth + 1) + ws();
        }
        return o + "}";
      }
    }
  }

  std::string object_line() {
    std::vector<std::string> pairs;
    if (pct(90)) {
      pairs.push_back("\"op\":" + ws() + "\"" +
                      std::string(pct(80) ? "rowmin" : "register_dense") +
                      "\"");
    }
    if (pct(70)) {
      pairs.push_back("\"id\":" + ws() +
                      std::to_string(static_cast<std::int64_t>(rng_() % 2000) -
                                     1000));
    }
    if (pct(8)) {
      static const char* kDeadlines[] = {"100", "0", "-1", "1.5", "\"5\""};
      pairs.push_back(std::string("\"deadline_ms\":") + kDeadlines[rng_() % 5]);
    }
    if (pct(5)) {
      static const char* kTraces[] = {"7", "0", "-3", "2.0"};
      pairs.push_back(std::string("\"trace_id\":") + kTraces[rng_() % 4]);
    }
    const std::size_t extra = rng_() % 4;
    for (std::size_t i = 0; i < extra; ++i) {
      static const char* kKeys[] = {"array", "row",  "r0",    "c1",
                                    "data",  "seed", "zkey",  "Akey",
                                    "row",   "esc\\u0041"};  // dup + escaped
      pairs.push_back("\"" + std::string(kKeys[rng_() % 10]) + "\":" + ws() +
                      value(0));
    }
    std::shuffle(pairs.begin(), pairs.end(), rng_);
    std::string line = "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i) line += ",";
      line += ws() + pairs[i] + ws();
    }
    line += "}";
    if (pct(30)) line = ws() + line + ws();
    return line;
  }

  std::string mutate(std::string line) {
    if (line.empty()) return line;
    switch (rng_() % 4) {
      case 0:
        line.resize(rng_() % line.size());  // truncate
        break;
      case 1:
        line[rng_() % line.size()] = static_cast<char>(rng_() % 256);
        break;
      case 2:
        line += "garbage";
        break;
      default:
        line.insert(rng_() % line.size(), 1, ',');
        break;
    }
    return line;
  }

  std::mt19937_64 rng_;
};

TEST(CodecDifferential, AcceptedLinesMatchSlowPathExactly) {
  LineGen gen(20260809);
  RequestCodec codec;
  std::size_t accepted = 0, slow_ok_count = 0;
  for (int iter = 0; iter < 60000; ++iter) {
    const std::string line = gen.next();
    FastQuery q;
    const bool fast_ok = codec.canonicalize_query(line, q);
    Request r;
    bool slow_ok = true;
    try {
      r = serve::parse_request(line);
    } catch (...) {
      slow_ok = false;
    }
    if (slow_ok) ++slow_ok_count;
    if (!fast_ok) continue;  // refusal is always legal
    ++accepted;
    ASSERT_TRUE(slow_ok) << "codec accepted a line the parser rejects: "
                         << line;
    // parse_request computes the signature only for query ops (the
    // service re-checks the op's plane after the codec and refuses
    // control ops to the slow path), so compare signatures on that domain.
    if (serve::op_spec(r.op).query) {
      EXPECT_EQ(q.signature, r.signature) << "line: " << line;
    }
    EXPECT_EQ(q.op, r.op) << "line: " << line;
    EXPECT_EQ(q.id, r.id) << "line: " << line;
    EXPECT_EQ(q.deadline_ms, r.deadline_ms) << "line: " << line;
    EXPECT_EQ(q.trace_id, r.trace_id) << "line: " << line;
    EXPECT_EQ(q.hash, serve::cache_checksum(q.signature));
    if (serve::op_spec(r.op).query) EXPECT_EQ(q.hash, r.hash);
  }
  // The fuzz is vacuous if the codec refuses everything interesting.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(slow_ok_count, accepted);
}

TEST(CodecDifferential, AcceptsTheFormsTheFastPathExistsFor) {
  RequestCodec codec;
  FastQuery q;
  // Shuffled keys, whitespace, escaped string VALUES, duplicate keys,
  // unicode escapes, doubles -- all must be accepted and agree with the
  // slow path.
  const char* kLines[] = {
      "{\"op\":\"rowmin\",\"array\":0,\"row\":3}",
      "{ \"row\" : 3 , \"array\" : 0 , \"op\" : \"rowmin\" , \"id\" : 9 }",
      "{\"op\":\"string_edit\",\"x\":\"a\\nb\",\"y\":\"\\u00e9\\t\"}",
      "{\"op\":\"rowmin\",\"row\":1,\"row\":2,\"array\":0}",
      "{\"op\":\"rowmin\",\"array\":0,\"row\":1e2}",
      "{\"op\":\"rowmin\",\"nested\":{\"b\":[1,2,{\"z\":null}],\"a\":true}}",
      "{\"op\":\"rowmin\",\"neg\":-0.5,\"big\":9223372036854775807}",
  };
  for (const char* line : kLines) {
    ASSERT_TRUE(codec.canonicalize_query(line, q)) << line;
    const Request r = serve::parse_request(line);
    EXPECT_EQ(q.signature, r.signature) << line;
    EXPECT_EQ(q.id, r.id) << line;
  }
}

TEST(RequestFields, ArraySizeCountsWhatTheDomWouldParse) {
  // Pricing a geometric query counts its points with Field::array_size,
  // a scan of the canonical bytes; the handler parses them.  Both must
  // see the same number of elements, nested values and strings holding
  // ',' or ']' included.
  const char* const kLines[] = {
      R"({"op":"largest_rect","points":[]})",
      R"({"op":"largest_rect","points":[[0,0]]})",
      R"({"op":"largest_rect","points":[[0,0],[3,4],[-1,2]]})",
      R"({"op":"polygon_neighbors","p":[[1,2],[3,4]],"q":[[5,6]]})",
      R"({"op":"largest_rect","points":[1,"a,]",[2,[3,[]]],{"k":[1,2]},null]})",
      R"({"op":"largest_rect","points":[ 1.5 , -2 , 3e2 ]})",
  };
  for (const char* line : kLines) {
    const Request r = serve::parse_request(line);
    for (const char* key : {"points", "p", "q"}) {
      const serve::Field f = r.find(key);
      if (!f.present()) continue;
      EXPECT_EQ(f.array_size(), f.parse().arr().size()) << line << " " << key;
    }
  }
}

TEST(CodecDifferential, DoublesNeverShareAnIntegersSignature) {
  // A number parsed as a double reads differently from an integer ("row":
  // 1.0 is not an integer), so its signature must differ from the
  // integer's -- in the codec and in the DOM path alike -- or a cached
  // integer answer would be served for it.
  std::mt19937_64 rng(20261021);
  RequestCodec codec;
  FastQuery q;
  const auto signature_of = [&](const std::string& line) {
    const Request r = serve::parse_request(line);
    EXPECT_TRUE(codec.canonicalize_query(line, q)) << line;
    EXPECT_EQ(q.signature, r.signature) << line;
    EXPECT_EQ(q.hash, r.hash) << line;
    return r.signature;
  };
  for (int iter = 0; iter < 3000; ++iter) {
    const std::int64_t v =
        static_cast<std::int64_t>(rng() % 2000001) - 1000000;
    const std::string iv = std::to_string(v);
    // Spellings of the same value as a double.
    const std::string dv[] = {iv + ".0", iv + "e0", iv + ".000",
                              iv + "0e-1", iv + "E+0"};
    const std::string key = rng() % 2 == 0 ? "row" : "array";
    const auto line = [&](const std::string& num) {
      return R"({"op":"rowmin",")" + key + "\":" + num + "}";
    };
    const std::string int_sig = signature_of(line(iv));
    for (const std::string& d : dv) {
      const std::string dsig = signature_of(line(d));
      EXPECT_NE(dsig, int_sig) << line(d);
      // Every spelling of the double shares one signature.
      EXPECT_EQ(dsig, signature_of(line(dv[0]))) << line(d);
    }
    // Nested values too.
    EXPECT_NE(signature_of(R"({"op":"largest_rect","points":[[)" + iv +
                           ",1]]}"),
              signature_of(R"({"op":"largest_rect","points":[[)" + dv[0] +
                           ",1]]}"));
  }
  // Edges: negative zero, values past 2^53 and int64, infinity vs null.
  const std::pair<const char*, const char*> kDistinct[] = {
      {"0", "-0.0"},      {"0", "0.0"},
      {"1e16", "10000000000000000"},
      {"9223372036854775807", "9223372036854775808"},
      {"1e999", "null"},  {"-1e999", "null"},
      {"1e999", "-1e999"},
  };
  const auto line_with = [](const char* num) {
    return std::string(R"({"op":"rowmin","row":)") + num + "}";
  };
  for (const auto& [a, b] : kDistinct) {
    EXPECT_NE(signature_of(line_with(a)), signature_of(line_with(b)))
        << a << " vs " << b;
  }
}

TEST(CodecDifferential, RefusesWhatItCannotPromise) {
  RequestCodec codec;
  FastQuery q;
  const char* kLines[] = {
      "{\"op\":\"rowmin\",\"deadline_ms\":-1}",  // the DOM's error
      "{\"op\":\"rowmin\",\"deadline_ms\":1.5}",  // not an integer
      "{\"op\":\"rowmin\",\"trace_id\":0}",       // not positive
      "{\"op\":\"rowmin\",\"trace_id\":\"7\"}",   // not an integer
      "{\"op\":\"rowmin\",\"id\":1e2}",           // not an integer
      "{\"array\":0}",                           // no op
      "{\"op\":1}",                              // non-string op
      "{\"op\":\"row\\u006din\"}",               // escaped op value
      "{\"e\\\\s\":1,\"op\":\"rowmin\"}",        // escaped object key
      "{\"op\":\"rowmin\"} trailing",            // trailing bytes
      "{\"op\":\"rowmin\"",                      // truncated
      "[1,2,3]",                                 // not an object
      "",                                        // empty
  };
  for (const char* line : kLines) {
    EXPECT_FALSE(codec.canonicalize_query(line, q)) << line;
  }
  // Nesting deeper than the guard.
  std::string deep = "{\"op\":\"rowmin\",\"v\":";
  for (int i = 0; i < 80; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += "]";
  deep += "}";
  EXPECT_FALSE(codec.canonicalize_query(deep, q));
}

// --------------------------------------------------------------------------
// 2. Fast/slow response byte-identity
// --------------------------------------------------------------------------

std::vector<std::string> transcript_requests() {
  std::vector<std::string> lines = {
      R"({"op":"ping","id":1})",
      R"({"op":"register_dense","id":2,"rows":2,"cols":3,"data":[1,2,4,0,1,3],"validate":true})",
      R"({"op":"rowmin","id":3,"array":0,"row":0})",
      R"({"op":"rowmin","id":4,"array":0,"row":1})",
      R"({"op":"rowmax","id":5,"array":0,"row":0})",
      R"({"op":"string_edit","id":7,"x":"kitten","y":"sitting"})",
      R"({"op":"rowmin","array":0,"row":0})",  // no id
      R"({ "row" : 0 , "array" : 0 , "op" : "rowmin" , "id" : 44 })",
      R"({"op":"rowmin","id":45,"array":7,"row":0})",  // unknown array
      R"({"op":"nonsense","id":46})",                  // unknown op
  };
  // Cache-hitting repeats (the fast path's whole reason to exist).
  for (int rep = 0; rep < 3; ++rep) {
    lines.push_back(R"({"op":"rowmin","id":3,"array":0,"row":0})");
    lines.push_back(R"({"op":"rowmax","id":5,"array":0,"row":0})");
    lines.push_back(R"({"op":"string_edit","id":7,"x":"kitten","y":"sitting"})");
  }
  // Invalidation, then the same query again (cold both sides).
  lines.push_back(R"({"op":"unregister","id":50,"array":0})");
  lines.push_back(R"({"op":"rowmin","id":51,"array":0,"row":0})");
  return lines;
}

TEST(CodecFastSlow, ResponsesByteIdenticalWithFastPathOnAndOff) {
  ServiceOptions on;
  ServiceOptions off;
  off.fast_path = false;
  Service svc_on(on), svc_off(off);
  for (const std::string& line : transcript_requests()) {
    const std::string a = svc_on.request(line);
    const std::string b = svc_off.request(line);
    EXPECT_EQ(a, b) << "request: " << line;
  }
  // The fast service really did take the fast path for the repeats.
  const auto hits = svc_on.cache_stats().hits;
  EXPECT_GE(hits, 9u);
}

/// One replayed request stream: each line, whether its golden
/// expectation is exact (a `<` line; `~` answers embed timings), and
/// which lines are cacheable queries, whose answers must not depend on
/// the cache (control ops such as unregister report on it).
struct Transcript {
  std::string options;  // the `!options` line's text, minus "cache="
  // "> line", "!pause", "!resume", or "<" where the transcript awaits its
  // next answer (so control ops run where they do in the golden run).
  std::vector<std::string> steps;
  std::vector<bool> exact;           // per request, in submission order
  std::vector<std::string> queries;  // the cacheable query lines
};

bool cacheable_query(const std::string& line) {
  try {
    const Request r = serve::parse_request(line);
    return serve::op_spec(r.op).query && r.op != serve::Op::Explain;
  } catch (const std::exception&) {
    return false;
  }
}

Transcript read_transcript(const std::filesystem::path& path) {
  Transcript t;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("!options", 0) == 0) {
      std::istringstream is(line.substr(8));
      for (std::string tok; is >> tok;) {
        if (tok.rfind("cache=", 0) != 0) t.options += tok + " ";
      }
    } else if (line.rfind("> ", 0) == 0 || line == "!pause" ||
               line == "!resume") {
      t.steps.push_back(line);
      if (line[0] == '>' && cacheable_query(line.substr(2))) {
        t.queries.push_back(line.substr(2));
      }
    } else if (line.rfind("< ", 0) == 0 || line == "<") {
      t.steps.push_back("<");
      t.exact.push_back(true);
    } else if (line.rfind("~ ", 0) == 0) {
      t.steps.push_back("<");
      t.exact.push_back(false);
    }
  }
  return t;
}

ServiceOptions transcript_options(const std::string& options, bool codec,
                                  bool cache) {
  ServiceOptions o;
  o.fast_path = codec;
  if (!cache) o.cache_capacity = 0;
  std::istringstream is(options);
  for (std::string tok; is >> tok;) {
    const std::string key = tok.substr(0, tok.find('='));
    const std::string val = tok.substr(tok.find('=') + 1);
    if (key == "queue") o.queue_capacity = std::stoull(val);
    if (key == "batch") o.batch_max = std::stoull(val);
    if (key == "shards") o.cache_shards = std::stoull(val);
    if (key == "deadline") o.default_deadline_ms = std::stoll(val);
    if (key == "coalesce") o.coalesce = val == "on";
    if (key == "planner") o.planner = val == "on";
  }
  return o;
}

/// A transcript's answers from one Service: every request in order, then
/// (warm) every cacheable query once more, then those queries' cold-pass
/// answers again, picked out for comparison across cache settings.
struct Replayed {
  std::vector<std::string> all;      // the transcript, then the warm pass
  std::vector<std::string> queries;  // cold and warm answers to queries
};

Replayed replay(const Transcript& t, bool codec, bool cache) {
  Service svc(transcript_options(t.options, codec, cache));
  std::vector<std::future<std::string>> futs;
  std::vector<bool> is_query;
  Replayed r;
  for (const std::string& step : t.steps) {
    if (step == "!pause") {
      svc.pause();
    } else if (step == "!resume") {
      svc.resume();
    } else if (step == "<") {
      const std::size_t i = r.all.size();
      r.all.push_back(futs[i].get());
      if (is_query[i]) r.queries.push_back(r.all.back());
    } else {
      futs.push_back(svc.submit(step.substr(2)));
      is_query.push_back(cacheable_query(step.substr(2)));
    }
  }
  for (const std::string& q : t.queries) {
    r.all.push_back(svc.request(q));
    r.queries.push_back(r.all.back());
  }
  return r;
}

TEST(CodecDifferential, GoldenTranscriptsAnswerAlikeCodecOrDomBuilt) {
  const std::filesystem::path dir =
      std::filesystem::path(PMONGE_SOURCE_DIR) / "tests" / "golden";
  std::size_t compared = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".txt") continue;
    const Transcript t = read_transcript(e.path());
    const std::string file = e.path().filename().string();
    // Codec-built and DOM-built requests get the same bytes for every
    // exact answer, cache on or off, cold and warm; and query answers do
    // not depend on the cache.
    const Replayed cold_ref = replay(t, false, false);
    for (const bool cache : {true, false}) {
      const Replayed want = replay(t, false, cache);
      const Replayed got = replay(t, true, cache);
      ASSERT_EQ(got.all.size(), want.all.size()) << file;
      for (std::size_t i = 0; i < got.all.size(); ++i) {
        if (i < t.exact.size() && !t.exact[i]) continue;  // timings
        EXPECT_EQ(got.all[i], want.all[i])
            << file << " answer " << i << " cache=" << cache;
        ++compared;
      }
      ASSERT_EQ(got.queries.size(), cold_ref.queries.size()) << file;
      for (std::size_t i = 0; i < got.queries.size(); ++i) {
        EXPECT_EQ(got.queries[i], cold_ref.queries[i])
            << file << " query answer " << i << " cache=" << cache;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

TEST(CodecDifferential, FuzzCorpusAnswersAlikeCodecOrDomBuilt) {
  // The fuzz lines name arrays 0 and 1 and rows 0..2 often enough to hit
  // real answers; the rest exercise the error envelopes.
  const std::vector<std::string> setup = {
      R"({"op":"register_random","rows":3,"cols":4,"seed":1})",
      R"({"op":"register_random","rows":3,"cols":4,"seed":2})"};
  LineGen gen(20261021);
  std::vector<std::string> lines;
  for (int i = 0; i < 4000; ++i) lines.push_back(gen.next());
  const auto answers = [&](bool codec, bool cache) {
    ServiceOptions o;
    o.fast_path = codec;
    if (!cache) o.cache_capacity = 0;
    Service svc(o);
    for (const std::string& l : setup) svc.request(l);
    std::vector<std::string> out;
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      for (const std::string& l : lines) out.push_back(svc.request(l));
    }
    return out;
  };
  const std::vector<std::string> want = answers(false, false);
  for (const bool codec : {true, false}) {
    for (const bool cache : {true, false}) {
      const std::vector<std::string> got = answers(codec, cache);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "line: " << lines[i % lines.size()]
                                   << " codec=" << codec << " cache=" << cache;
      }
    }
  }
}

// --------------------------------------------------------------------------
// 3. The allocation gate
// --------------------------------------------------------------------------

TEST(CodecAllocGate, WarmCachedHitAllocatesNothing) {
  Service svc;
  ASSERT_TRUE(svc.request(
                     R"({"op":"register_dense","id":1,"rows":2,"cols":3,"data":[1,2,4,0,1,3]})")
                  .find("\"ok\":true") != std::string::npos);
  const std::string query = R"({"op":"rowmin","id":9,"array":0,"row":0})";
  const std::string expect = svc.request(query);  // computes + caches
  ASSERT_NE(expect.find("\"ok\":true"), std::string::npos);

  std::string out;
  // Warm this thread's codec buffers and the output string.
  for (int i = 0; i < 3; ++i) {
    out.clear();
    ASSERT_TRUE(svc.try_serve_fast(query, out));
    EXPECT_EQ(out, expect);
  }

  const std::uint64_t before = t_news;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    ASSERT_TRUE(svc.try_serve_fast(query, out));
  }
  const std::uint64_t after = t_news;
  EXPECT_EQ(after - before, 0u)
      << "warm cached-hit fast path allocated " << (after - before)
      << " times over 1000 requests";
  EXPECT_EQ(out, expect);
}

// --------------------------------------------------------------------------
// 4. Concurrency hammer (TSan leg)
// --------------------------------------------------------------------------

TEST(CodecHammer, EightThreadsCachedHitsStayCorrect) {
  Service svc;
  svc.request(
      R"({"op":"register_dense","id":1,"rows":4,"cols":4,"data":[0,1,2,3,1,2,3,4,2,3,4,5,3,4,5,6]})");
  std::vector<std::string> queries, expected;
  for (int row = 0; row < 4; ++row) {
    queries.push_back("{\"op\":\"rowmin\",\"array\":0,\"row\":" +
                      std::to_string(row) + "}");
    expected.push_back(svc.request(queries.back()));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::string out;
      for (int i = 0; i < 2000; ++i) {
        const std::size_t qi = static_cast<std::size_t>(i + t) % queries.size();
        out.clear();
        if (svc.try_serve_fast(queries[qi], out)) {
          if (out != expected[qi]) failures.fetch_add(1);
        } else if (svc.request(queries[qi]) != expected[qi]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace pmonge
