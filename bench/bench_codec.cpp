// Codec microbench: the request/response byte paths before vs after the
// zero-allocation rework, measured head to head on identical inputs.
//
//   parse:     Json-DOM parse_request (the slow path) vs the streaming
//              canonicalizer (serve/codec.hpp) -- ns/req and allocs/req;
//   serialize: make_ok_response (DOM dump) vs append_ok_response_raw
//              (splice into a reused buffer) -- ns/resp and allocs/resp;
//   serve:     warm cached-hit through Service with the fast path off
//              (pre-codec behavior) vs Service::try_serve_fast;
//   miss:      warm inline miss -- distinct lines in burst_mix's mix (row
//              and staircase rows, submatrix regions on an indexed
//              operand, short edits), each answered inline by a cache-on
//              Service on the calling thread -- ns/req and allocs/req.
//
// Allocation counts come from a global operator-new hook (thread-local
// counter, main thread only).  The run exits nonzero if the warm fast
// path allocates at all, if a warm inline miss allocates more than
// kMaxMissAllocs times (both the gates CI runs; neither depends on
// timing), or if the codec fails to beat the DOM parse on time.
//
//   --reqs N            requests per timed loop      (default 20000)
//   --reps N            median-of-N repetitions      (default 5)
//   --warmup N          throwaway runs per config    (default 1)
//   --json[=PATH]       machine-readable records     (BENCH_codec.json),
//                       stamped with host, core count and build type
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

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

namespace {

using pmonge::serve::FastQuery;
using pmonge::serve::Json;
using pmonge::serve::RequestCodec;
using pmonge::serve::Service;
using pmonge::serve::ServiceOptions;

/// Representative request lines: the short cached-query shape the fast
/// path exists for, plus a wider one with strings and shuffled keys.
std::vector<std::string> request_lines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back("{\"op\":\"rowmin\",\"array\":0,\"id\":" +
                    std::to_string(i) + ",\"row\":" + std::to_string(i) + "}");
  }
  lines.push_back(
      R"({"op":"string_edit","id":99,"x":"kitten","y":"sitting"})");
  lines.push_back(
      R"({ "row" : 3 , "array" : 0 , "op" : "rowmin" , "id" : 100 })");
  return lines;
}

/// The most heap allocations a warm inline miss may make through
/// Service::submit_line, the front-ends' call: the request's signature,
/// the outcome's bytes and the handler's own vectors; the lines below
/// average 4.43 (before the codec-at-the-front rework 25-28 were made).
constexpr double kMaxMissAllocs = 5.0;

/// Distinct query lines in burst_mix's mix over a `rows` x `cols` Monge
/// operand (array 0, indexed) and a staircase one (array 1): none
/// repeats, so each one misses the cache.
std::vector<std::string> miss_lines(std::size_t n, std::int64_t rows,
                                    std::int64_t cols) {
  pmonge::Rng rng(20261021);
  std::vector<std::string> row_lines;
  for (const char* op : {"rowmin", "rowmax", "staircase_rowmin"}) {
    const int array = std::string(op).starts_with("staircase") ? 1 : 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      row_lines.push_back(std::string("{\"op\":\"") + op +
                          "\",\"array\":" + std::to_string(array) +
                          ",\"row\":" + std::to_string(r));
    }
  }
  std::shuffle(row_lines.begin(), row_lines.end(), rng);
  const auto word = [&] {
    std::string w(static_cast<std::size_t>(rng.uniform_int(6, 20)), 'a');
    for (char& c : w) c = "acgt"[rng.uniform_int(0, 3)];
    return w;
  };
  std::set<std::string> seen;
  std::vector<std::string> lines;
  while (lines.size() < n) {
    const std::int64_t dice = rng.uniform_int(0, 99);
    std::string line;
    if (dice < 60 && !row_lines.empty()) {
      line = std::move(row_lines.back());
      row_lines.pop_back();
    } else if (dice < 85) {
      std::int64_t r[4];
      for (int i = 0; i < 4; ++i) r[i] = rng.uniform_int(0, (i < 2 ? rows : cols) - 1);
      line = std::string("{\"op\":\"") +
             (dice % 2 == 0 ? "submatrix_min" : "submatrix_max") +
             "\",\"array\":0,\"r0\":" + std::to_string(std::min(r[0], r[1])) +
             ",\"r1\":" + std::to_string(std::max(r[0], r[1])) +
             ",\"c0\":" + std::to_string(std::min(r[2], r[3])) +
             ",\"c1\":" + std::to_string(std::max(r[2], r[3]));
    } else {
      line = "{\"op\":\"string_edit\",\"x\":\"" + word() + "\",\"y\":\"" +
             word() + "\"";
    }
    if (!seen.insert(line).second) continue;
    lines.push_back(line + ",\"id\":" + std::to_string(lines.size()) + "}");
  }
  return lines;
}

std::uint64_t inline_answered(Service& svc) {
  const Json st = Json::parse(svc.request(R"({"op":"stats"})"));
  return static_cast<std::uint64_t>(
      st.at("result").at("queue").at("inline").as_int());
}

struct Measured {
  double ns_per = 0;      // median wall ns per item
  double allocs_per = 0;  // heap allocations per item (exact, one pass)
};

/// Median-of-reps wall time per item plus a one-pass allocation count.
template <class F>
Measured measure(F&& body, std::size_t items, std::size_t warmup,
                 std::size_t reps) {
  Measured m;
  const auto stats = pmonge::bench::timed_median(body, warmup, reps);
  m.ns_per = stats.median_ms * 1e6 / static_cast<double>(items);
  const std::uint64_t before = t_news;
  body();
  m.allocs_per =
      static_cast<double>(t_news - before) / static_cast<double>(items);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  pmonge::Cli cli(argc, argv);
  const auto reqs = static_cast<std::size_t>(cli.get_int("reqs", 20000));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const auto warmup = static_cast<std::size_t>(cli.get_int("warmup", 1));
  auto records =
      pmonge::bench::JsonRecords::from_cli(cli, "codec", "BENCH_codec.json");
  const auto lines = request_lines();
  const std::string host = pmonge::bench::cpu_model();
  const auto nproc =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  std::cout << "host: " << host << ", nproc " << nproc << ", build "
            << PMONGE_BUILD_TYPE << "\n";
  const auto add_record = [&](Json::Obj r) {
    r["host"] = host;
    r["nproc"] = nproc;
    r["build_type"] = PMONGE_BUILD_TYPE;
    records.add(std::move(r));
  };

  pmonge::Table table(
      {"path", "before ns", "after ns", "speedup", "allocs/req before",
       "allocs/req after"});
  bool gate_failed = false;
  const auto emit = [&](const char* path, const Measured& before,
                        const Measured& after) {
    table.add_row({path, pmonge::Table::fixed(before.ns_per, 0),
                   pmonge::Table::fixed(after.ns_per, 0),
                   pmonge::Table::fixed(before.ns_per / after.ns_per, 2) + "x",
                   pmonge::Table::fixed(before.allocs_per, 2),
                   pmonge::Table::fixed(after.allocs_per, 2)});
    Json::Obj r;
    r["path"] = path;
    r["before_ns_per_req"] = before.ns_per;
    r["after_ns_per_req"] = after.ns_per;
    r["before_allocs_per_req"] = before.allocs_per;
    r["after_allocs_per_req"] = after.allocs_per;
    add_record(std::move(r));
  };

  pmonge::bench::print_header("request parse: DOM parse_request vs codec");
  {
    const Measured before = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            const auto r = pmonge::serve::parse_request(lines[i % lines.size()]);
            if (r.signature.empty()) std::abort();
          }
        },
        reqs, warmup, reps);
    RequestCodec codec;
    FastQuery q;
    const Measured after = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            if (!codec.canonicalize_query(lines[i % lines.size()], q)) {
              std::abort();
            }
          }
        },
        reqs, warmup, reps);
    emit("parse", before, after);
    if (after.ns_per >= before.ns_per) gate_failed = true;
    if (after.allocs_per != 0.0) gate_failed = true;  // warm codec: zero
  }

  pmonge::bench::print_header(
      "response serialize: make_ok_response vs append_ok_response_raw");
  {
    const std::string cached = R"({"col":0,"value":1})";
    const Measured before = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            const std::string resp = pmonge::serve::make_ok_response(
                static_cast<std::int64_t>(i), Json::parse(cached));
            if (resp.empty()) std::abort();
          }
        },
        reqs, warmup, reps);
    std::string buf;
    const Measured after = measure(
        [&] {
          for (std::size_t i = 0; i < reqs; ++i) {
            buf.clear();
            pmonge::serve::append_ok_response_raw(static_cast<std::int64_t>(i),
                                                  cached, buf);
            if (buf.empty()) std::abort();
          }
        },
        reqs, warmup, reps);
    emit("serialize", before, after);
    if (after.ns_per >= before.ns_per) gate_failed = true;
  }

  pmonge::bench::print_header(
      "cached-hit serve: fast path off (pre-codec) vs try_serve_fast");
  {
    const std::string reg =
        R"({"op":"register_dense","rows":2,"cols":3,"data":[1,2,4,0,1,3]})";
    const std::string query = R"({"op":"rowmin","array":0,"row":0})";
    const std::size_t serve_reqs = std::min<std::size_t>(reqs, 4096);

    ServiceOptions off;
    off.fast_path = false;
    Service slow(off);
    slow.request(reg);
    slow.request(query);  // warm the cache
    const Measured before = measure(
        [&] {
          for (std::size_t i = 0; i < serve_reqs; ++i) slow.request(query);
        },
        serve_reqs, warmup, reps);

    Service fast;
    fast.request(reg);
    fast.request(query);
    std::string out;
    const Measured after = measure(
        [&] {
          for (std::size_t i = 0; i < serve_reqs; ++i) {
            out.clear();
            if (!fast.try_serve_fast(query, out)) std::abort();
          }
        },
        serve_reqs, warmup, reps);
    emit("serve_cached_hit", before, after);
    // The gate CI enforces: the warm fast path performs zero heap
    // allocations per cached-hit request.
    if (after.allocs_per != 0.0) gate_failed = true;
  }

  pmonge::bench::print_header(
      "warm inline miss: distinct lines answered inline, cache on");
  bool miss_gate_failed = false;
  {
    // Each rep answers lines none before it asked, so every one misses;
    // the warm-up pass fills every shard of the 4096-entry cache, so the
    // measured inserts run at capacity, as a long-running server's do.
    constexpr std::int64_t kRows = 4096;
    constexpr std::int64_t kCols = 512;
    constexpr std::size_t kWarmLines = 8192;
    const std::size_t per_rep = std::min<std::size_t>(reqs, 2048);
    const std::vector<std::string> lines =
        miss_lines(kWarmLines + per_rep * reps, kRows, kCols);
    Service svc;
    const auto control = [&](const std::string& line) {
      if (svc.request(line).find("\"ok\":true") == std::string::npos) {
        std::abort();
      }
    };
    const std::string dims = ",\"rows\":" + std::to_string(kRows) +
                             ",\"cols\":" + std::to_string(kCols);
    control("{\"op\":\"register_random\",\"seed\":1" + dims + "}");
    control("{\"op\":\"register_random\",\"kind\":\"staircase\",\"seed\":2" +
            dims + "}");
    control(R"({"op":"index_build","array":0})");

    // The front-ends' call: each answer appended to one reused buffer,
    // as the rpc loop appends to a connection's outbound bytes.
    std::string resp;
    const auto queued = []() -> Service::ResponseCallback { std::abort(); };
    const auto answer = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        pmonge::serve::InlineAllowance allowance;
        resp.clear();
        if (!svc.submit_line(lines[i], resp, allowance, queued) ||
            resp.find("\"ok\":true") == std::string::npos) {
          std::abort();
        }
      }
    };
    answer(0, kWarmLines);
    const std::uint64_t inline0 = inline_answered(svc);
    std::vector<double> ns;
    const std::uint64_t before = t_news;
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t from = kWarmLines + r * per_rep;
      const auto t0 = std::chrono::steady_clock::now();
      answer(from, from + per_rep);
      const auto t1 = std::chrono::steady_clock::now();
      ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(per_rep));
    }
    const double measured = static_cast<double>(per_rep * reps);
    const double allocs = static_cast<double>(t_news - before) / measured;
    std::sort(ns.begin(), ns.end());
    const double ns_per = ns[ns.size() / 2];
    // Every measured line must have run inline, on this thread.
    if (inline_answered(svc) - inline0 != per_rep * reps) std::abort();
    if (allocs > kMaxMissAllocs) miss_gate_failed = true;

    std::cout << "warm inline miss: " << pmonge::Table::fixed(ns_per, 0)
              << " ns/req, " << pmonge::Table::fixed(allocs, 2)
              << " allocs/req (gate: <= " << kMaxMissAllocs << ")\n";
    Json::Obj r;
    r["path"] = "serve_inline_miss";
    r["ns_per_req"] = ns_per;
    r["allocs_per_req"] = allocs;
    r["max_allocs_per_req"] = kMaxMissAllocs;
    r["reqs"] = static_cast<std::int64_t>(measured);
    add_record(std::move(r));
  }

  table.print(std::cout);
  records.write();
  if (gate_failed) {
    std::cout << "GATE FAILED: codec slower than DOM path or warm fast path "
                 "allocated\n";
  }
  if (miss_gate_failed) {
    std::cout << "GATE FAILED: a warm inline miss allocated more than "
              << kMaxMissAllocs << " times\n";
  }
  if (!gate_failed && !miss_gate_failed) {
    std::cout << "gates ok: codec faster, warm fast path allocation-free, "
                 "warm inline miss within its allocation bound\n";
  }
  return gate_failed || miss_gate_failed ? 1 : 0;
}
