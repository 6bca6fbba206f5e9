// Serve-layer throughput bench: the same query stream answered (a) with
// coalescing on, (b) with coalescing off (batch-of-one per request), and
// (c) with a warm cache -- plus an overload run demonstrating explicit
// `overloaded` rejection under a held worker.
//
// The acceptance bar for the batching layer: batched throughput on a
// bursty stream must be >= unbatched on the same stream (the coalesced
// run shares one recursive row-search decomposition across the burst
// where the unbatched run pays it per request).
//
//   --rows N --cols N   registered array size       (default 256 x 256)
//   --queries N         stream length               (default 512)
// A tracing-overhead gate rides along: the batched stream re-timed with
// span tracing off vs on; the run fails (exit 1) if tracing on costs
// more than 5% (the `trace_overhead_pct` record in the JSON output).
// A fault-layer gate does the same for src/fault: disarmed vs armed at
// rate 0 -- the full decision path on every site with nothing ever
// firing, i.e. an upper bound on what a fault-capable binary costs when
// faults are off.  Budget: 2% (`fault_overhead_pct`), exit 1 above.
//
//   --reps N            median-of-N repetitions     (default 5)
//   --warmup N          throwaway runs per config   (default 1)
//   --json[=PATH]       machine-readable records    (BENCH_serve.json),
//                       stamped with host, core count and build type
//   --trace-out[=PATH]  Chrome trace of the traced run (trace_serve.json)
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using pmonge::serve::Service;
using pmonge::serve::ServiceOptions;

std::vector<std::string> make_stream(std::size_t rows, std::size_t queries) {
  std::vector<std::string> qs;
  qs.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    // Distinct ids keep every request distinct on the wire while the
    // cache signature (which strips ids) still coalesces repeats.
    qs.push_back("{\"op\":\"rowmin\",\"array\":0,\"id\":" + std::to_string(i) +
                 ",\"row\":" + std::to_string(i % rows) + "}");
  }
  return qs;
}

/// Submit the whole stream as a burst (worker held), then time the drain.
double run_stream(Service& svc, const std::vector<std::string>& stream) {
  svc.pause();
  std::vector<std::future<std::string>> futs;
  futs.reserve(stream.size());
  for (const auto& q : stream) futs.push_back(svc.submit(q));
  const auto t0 = std::chrono::steady_clock::now();
  svc.resume();
  for (auto& f : futs) f.get();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  pmonge::Cli cli(argc, argv);
  const auto rows = static_cast<std::size_t>(cli.get_int("rows", 256));
  const auto cols = static_cast<std::size_t>(cli.get_int("cols", 256));
  const auto queries = static_cast<std::size_t>(cli.get_int("queries", 512));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const auto warmup = static_cast<std::size_t>(cli.get_int("warmup", 1));
  auto records =
      pmonge::bench::JsonRecords::from_cli(cli, "serve", "BENCH_serve.json");
  const std::string host = pmonge::bench::cpu_model();
  const auto nproc =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  std::cout << "host: " << host << ", nproc " << nproc << ", build "
            << PMONGE_BUILD_TYPE << "\n";
  const auto add_record = [&](pmonge::serve::Json::Obj r) {
    r["host"] = host;
    r["nproc"] = nproc;
    r["build_type"] = PMONGE_BUILD_TYPE;
    records.add(std::move(r));
  };

  pmonge::bench::print_header("serve throughput: batched vs unbatched");
  const std::string reg = "{\"op\":\"register_random\",\"rows\":" +
                          std::to_string(rows) +
                          ",\"cols\":" + std::to_string(cols) + ",\"seed\":7}";
  const auto stream = make_stream(rows, queries);

  struct Config {
    const char* name;
    bool coalesce;
    std::size_t cache;
  };
  const Config configs[] = {
      {"unbatched, no cache", false, 0},
      {"batched,   no cache", true, 0},
      {"batched,   cold->warm cache", true, 4096},
  };

  pmonge::Table table({"config", "queries", "median ms", "qps", "min ms",
                       "max ms"});
  double unbatched_ms = 0, batched_ms = 0;
  for (const Config& c : configs) {
    ServiceOptions opts;
    opts.coalesce = c.coalesce;
    opts.cache_capacity = c.cache;
    opts.queue_capacity = queries + 16;
    opts.batch_max = 64;
    Service svc(opts);
    svc.request(reg);
    const auto stats = pmonge::bench::timed_median(
        [&] { run_stream(svc, stream); }, warmup, reps);
    if (std::string(c.name).find("unbatched") != std::string::npos) {
      unbatched_ms = stats.median_ms;
    } else if (c.cache == 0) {
      batched_ms = stats.median_ms;
    }
    table.add_row({c.name, pmonge::Table::num(queries),
                   pmonge::Table::fixed(stats.median_ms, 2),
                   pmonge::Table::fixed(
                       1000.0 * static_cast<double>(queries) / stats.median_ms,
                       0),
                   pmonge::Table::fixed(stats.min_ms, 2),
                   pmonge::Table::fixed(stats.max_ms, 2)});
    pmonge::serve::Json::Obj r;
    r["op"] = "rowmin";
    r["rows"] = rows;
    r["cols"] = cols;
    r["batch"] = queries;
    r["config"] = c.name;
    r["median_us"] = stats.median_ms * 1000.0;
    r["profile"] = opts.profile.id;
    add_record(std::move(r));
  }
  table.print(std::cout);
  std::cout << "batched/unbatched median: "
            << pmonge::Table::fixed(batched_ms / unbatched_ms, 3)
            << " (<= 1.0 means batching wins)\n";

  pmonge::bench::print_header("tracing overhead: spans off vs on");
  bool trace_regression = false;
  {
    ServiceOptions topts;
    topts.coalesce = true;
    topts.cache_capacity = 0;
    topts.queue_capacity = queries + 16;
    Service tsvc(topts);
    tsvc.request(reg);
    // Two drains per timed sample: the differential gate needs samples
    // long enough that a descheduling blip cannot read as overhead.
    const auto t = pmonge::bench::trace_overhead(
        [&] {
          run_stream(tsvc, stream);
          run_stream(tsvc, stream);
        },
        warmup, reps);
    trace_regression = t.pct > 5.0;
    std::cout << "untraced " << pmonge::Table::fixed(t.off_ms, 2)
              << " ms, traced " << pmonge::Table::fixed(t.on_ms, 2)
              << " ms: overhead " << pmonge::Table::fixed(t.pct, 2) << "% "
              << (trace_regression ? "REGRESSION (> 5%)" : "(<= 5% ok)")
              << "\n";
    pmonge::serve::Json::Obj r;
    r["op"] = "rowmin";
    r["rows"] = rows;
    r["cols"] = cols;
    r["batch"] = queries;
    r["config"] = "tracing overhead";
    r["median_us"] = t.on_ms * 1000.0;
    r["baseline_us"] = t.off_ms * 1000.0;
    r["trace_overhead_pct"] = t.pct;
    r["profile"] = topts.profile.id;
    add_record(std::move(r));
    pmonge::bench::write_trace_out(cli, "trace_serve.json");
  }

  pmonge::bench::print_header("fault-layer overhead: disarmed vs armed@rate 0");
  bool fault_regression = false;
  {
    ServiceOptions fopts;
    fopts.coalesce = true;
    fopts.cache_capacity = 0;
    fopts.queue_capacity = queries + 16;
    Service fsvc(fopts);
    fsvc.request(reg);
    // Armed at rate 0: armed() is true so every site runs its full
    // should_fire() decision (mask check, counter bump, splitmix64 mix),
    // but nothing ever fires -- the worst case for a production binary
    // with the fault layer compiled in and switched off.
    const auto f = pmonge::bench::paired_overhead(
        [&] {
          run_stream(fsvc, stream);
          run_stream(fsvc, stream);
        },
        [](bool on) {
          if (on) {
            pmonge::fault::arm(7, 0, pmonge::fault::kAllSites);
          } else {
            pmonge::fault::disarm();
          }
        },
        warmup, reps);
    fault_regression = f.pct > 2.0;
    std::cout << "disarmed " << pmonge::Table::fixed(f.off_ms, 2)
              << " ms, armed@0 " << pmonge::Table::fixed(f.on_ms, 2)
              << " ms: overhead " << pmonge::Table::fixed(f.pct, 2) << "% "
              << (fault_regression ? "REGRESSION (> 2%)" : "(<= 2% ok)")
              << "\n";
    pmonge::serve::Json::Obj r;
    r["op"] = "rowmin";
    r["rows"] = rows;
    r["cols"] = cols;
    r["batch"] = queries;
    r["config"] = "fault-layer overhead";
    r["median_us"] = f.on_ms * 1000.0;
    r["baseline_us"] = f.off_ms * 1000.0;
    r["fault_overhead_pct"] = f.pct;
    r["profile"] = fopts.profile.id;
    add_record(std::move(r));
  }
  pmonge::bench::print_header(
      "cached-hit p50: fast path off (inline path) vs on");
  bool fastpath_regression = false;
  {
    // End-to-end gate for the zero-allocation fast path: the same warm
    // cached-hit request stream through Service::request with the codec
    // path disabled vs enabled.  Disabled, each request takes the inline
    // path (parse, then the batcher's cache probe on the calling thread;
    // the queue is idle between synchronous requests), so the gate
    // measures the fast path against the inline path, not against the
    // queue-and-worker hand-off.  Responses are byte-identical by the
    // test_codec contract; only the latency may differ, and it must
    // improve by >= 20% or this run exits nonzero.
    const std::size_t probe_rows = std::min<std::size_t>(rows, 32);
    std::vector<std::string> cached;
    for (std::size_t rI = 0; rI < probe_rows; ++rI) {
      cached.push_back("{\"op\":\"rowmin\",\"array\":0,\"row\":" +
                       std::to_string(rI) + "}");
    }
    const auto p50_us = [&](bool fast) {
      ServiceOptions copts;
      copts.fast_path = fast;
      copts.queue_capacity = queries + 16;
      Service csvc(copts);
      csvc.request(reg);
      for (const auto& q : cached) csvc.request(q);  // warm the cache
      const std::size_t per_rep = 64;
      const auto stats = pmonge::bench::timed_median(
          [&] {
            for (std::size_t i = 0; i < per_rep; ++i) {
              csvc.request(cached[i % cached.size()]);
            }
          },
          warmup + 1, reps);
      return stats.median_ms * 1000.0 / static_cast<double>(per_rep);
    };
    const double off_us = p50_us(false);
    const double on_us = p50_us(true);
    const double improve_pct =
        off_us > 0 ? (off_us - on_us) / off_us * 100.0 : 0.0;
    fastpath_regression = improve_pct < 20.0;
    std::cout << "cached hit, fast path off " << pmonge::Table::fixed(off_us, 2)
              << " us/req, on " << pmonge::Table::fixed(on_us, 2)
              << " us/req: improvement " << pmonge::Table::fixed(improve_pct, 1)
              << "% "
              << (fastpath_regression ? "REGRESSION (< 20%)" : "(>= 20% ok)")
              << "\n";
    pmonge::serve::Json::Obj r;
    r["op"] = "rowmin";
    r["rows"] = rows;
    r["cols"] = cols;
    r["batch"] = std::size_t{1};
    r["config"] = "cached-hit fast path";
    r["median_us"] = on_us;
    r["baseline_us"] = off_us;
    r["fastpath_improvement_pct"] = improve_pct;
    add_record(std::move(r));
  }
  records.write();

  pmonge::bench::print_header("serve overload: bounded queue rejects");
  ServiceOptions opts;
  opts.coalesce = true;
  opts.cache_capacity = 0;
  opts.queue_capacity = 32;
  Service svc(opts);
  svc.request(reg);
  svc.pause();  // hold the worker so the burst genuinely overflows
  std::vector<std::future<std::string>> futs;
  for (const auto& q : stream) futs.push_back(svc.submit(q));
  svc.resume();
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futs) {
    const std::string resp = f.get();
    if (resp.find("overloaded") != std::string::npos) {
      ++rejected;
    } else {
      ++ok;
    }
  }
  std::cout << "submitted " << stream.size() << " into capacity "
            << opts.queue_capacity << ": " << ok << " answered, " << rejected
            << " rejected `overloaded`, 0 dropped\n";
  return trace_regression || fault_regression || fastpath_regression ? 1 : 0;
}
