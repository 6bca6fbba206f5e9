// pmonge-serve: newline-delimited JSON service front-end over
// serve::Service, in two transport modes:
//
//   stdin mode (default): one request object per stdin line, one
//   response object per stdout line, in request order (the admission
//   queue is FIFO, so in-order awaiting never starves).  EOF on stdin
//   drains in-flight work and exits.  The reader honors the shared
//   backpressure contract (rpc/backpressure.hpp): at most max_inflight
//   submitted-but-unanswered lines, so a fast pipe cannot grow the
//   pending window without bound.
//
//   --listen HOST:PORT: the same protocol over TCP (rpc/server.hpp) --
//   an epoll event loop multiplexes concurrent connections onto the one
//   service, with per-connection backpressure, --max-conns, idle
//   timeouts, and graceful drain on SIGTERM/SIGINT.  Response bytes are
//   identical to stdin mode.  PORT 0 binds an ephemeral port (printed
//   on stderr).
//
//   $ printf '%s\n%s\n' <register request> <rowmin request> | pmonge-serve
//   $ pmonge-serve --listen 127.0.0.1:7333
// (see docs/serving.md, docs/networking.md, examples/serve_client.cpp)
//
// Flags (see docs/serving.md): --queue N --batch N --cache N --shards N
// --no-batch --no-cache --model NAME --deadline-ms N --max-cells N
// --profile PATH --no-plan --calibrate PATH (PMONGE_PROFILE is the env
// equivalent of --profile; the flag wins when both are set) plus the
// resilience knobs --retries --op-timeout-ms --breaker-threshold
// --breaker-cooldown (docs/robustness.md) and the transport knobs
// --listen --max-conns --max-inflight --max-line-bytes --idle-timeout-ms
// --drain-timeout-ms (docs/networking.md)
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "plan/calibrate.hpp"
#include "pram/machine.hpp"
#include "rpc/backpressure.hpp"
#include "rpc/server.hpp"
#include "serve/service.hpp"
#include "support/arena.hpp"
#include "support/cli.hpp"

namespace {

pmonge::pram::Model parse_model(const std::string& name) {
  using pmonge::pram::Model;
  if (name == "crew") return Model::CREW;
  if (name == "crcw" || name == "crcw_common") return Model::CRCW_COMMON;
  if (name == "crcw_arbitrary") return Model::CRCW_ARBITRARY;
  if (name == "crcw_priority") return Model::CRCW_PRIORITY;
  std::fprintf(stderr,
               "pmonge-serve: unknown model \"%s\" (want crew, crcw, "
               "crcw_arbitrary, crcw_priority)\n",
               name.c_str());
  std::exit(2);
}

// --listen target for the signal handlers.  request_stop() is
// async-signal-safe (one atomic store + one write(2)) and the pointer
// load is lock-free, so the handler body is safe.
std::atomic<pmonge::rpc::Server*> g_server{nullptr};

void handle_stop_signal(int) {
  if (pmonge::rpc::Server* s = g_server.load(std::memory_order_acquire)) {
    s->request_stop();
  }
}

// Writes the whole-process Chrome trace, if --trace-out asked for one.
// A path that cannot be written is a hard error: the user asked for it.
int write_trace(const std::string& trace_out) {
  if (trace_out.empty()) return 0;
  const std::string doc =
      pmonge::obs::chrome_trace_json(pmonge::obs::collect()).dump();
  std::ofstream out(trace_out, std::ios::binary | std::ios::trunc);
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "pmonge-serve: cannot write trace to \"%s\"\n",
                 trace_out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  pmonge::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::puts(
        "pmonge-serve: NDJSON query service (one request per line on stdin,\n"
        "one response per line on stdout; see docs/serving.md)\n"
        "  --listen HOST:PORT serve the same protocol over TCP instead of\n"
        "                   stdin/stdout (port 0 = ephemeral, printed on\n"
        "                   stderr; see docs/networking.md)\n"
        "  --max-conns N    TCP only: concurrent connection cap; surplus\n"
        "                   connects get one `overloaded` line (default 256)\n"
        "  --max-inflight N submitted-but-unanswered lines per connection\n"
        "                   (and for the stdin reader) before the transport\n"
        "                   stops reading (default 128)\n"
        "  --max-line-bytes N  TCP only: oversized-line threshold\n"
        "                   (default 1048576)\n"
        "  --idle-timeout-ms N  TCP only: close idle connections, <=0\n"
        "                   disables (default 300000)\n"
        "  --drain-timeout-ms N TCP only: graceful-drain bound on\n"
        "                   SIGTERM/SIGINT (default 5000)\n"
        "  --queue N        admission queue capacity (default 1024)\n"
        "  --batch N        max requests coalesced per batch (default 64)\n"
        "  --cache N        result cache capacity, 0 disables (default 4096)\n"
        "  --shards N       cache shard count (default 8)\n"
        "  --no-batch       disable coalescing (batch-of-one per request)\n"
        "  --no-cache       disable the result cache\n"
        "  --model NAME     crew | crcw | crcw_arbitrary | crcw_priority\n"
        "                   (default crcw)\n"
        "  --deadline-ms N  default per-request deadline (default: none)\n"
        "  --max-cells N    register_* size guard (default 2^24)\n"
        "  --profile PATH   load a calibrated cost profile (JSON); the\n"
        "                   PMONGE_PROFILE env var is equivalent, the flag\n"
        "                   wins; default: the deterministic built-in\n"
        "  --no-plan        disable the execution planner (each op class's\n"
        "                   last route, no deadline_unmeetable admission)\n"
        "  --calibrate PATH run the calibration microbenchmarks, write the\n"
        "                   fitted profile to PATH, and exit\n"
        "  --trace-out PATH enable span tracing (as if PMONGE_TRACE=1) and\n"
        "                   write the Chrome trace-event JSON of the whole\n"
        "                   run to PATH at exit (load in ui.perfetto.dev)\n"
        "  --retries N      group retry attempts on injected faults\n"
        "                   (default 3)\n"
        "  --op-timeout-ms N  per-group execution budget, -1 = none\n"
        "                   (default -1)\n"
        "  --breaker-threshold N  consecutive failures that open the\n"
        "                   circuit breaker (default 5)\n"
        "  --breaker-cooldown N   groups run degraded (sequential) while\n"
        "                   the breaker is open (default 32)\n"
        "Fault injection (docs/robustness.md): PMONGE_FAULT_RATE (basis\n"
        "points; unset or 0 = off), PMONGE_FAULT_SEED, PMONGE_FAULT_SITES.");
    return 0;
  }

  // A vanished peer (closed stdout pipe, dropped TCP connection) must be
  // a write error we handle, never a SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);

  // Touch the engine knobs eagerly: the pool initializes lazily, so a
  // malformed PMONGE_THREADS / PMONGE_TRACE would
  // otherwise surface only on the first query large enough to fan out --
  // or never, for a service that happens to stay serial.  Fail loudly
  // before serving.
  try {
    pmonge::exec::num_threads();
    pmonge::obs::enabled();
    pmonge::fault::armed();  // PMONGE_FAULT_* typos fail here, not mid-run
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmonge-serve: %s\n", e.what());
    return 2;
  }

  const std::string trace_out = cli.get("trace-out", "");
  if (!trace_out.empty()) pmonge::obs::set_enabled(true);

  if (cli.has("calibrate")) {
    const std::string path = cli.get("calibrate", "");
    if (path.empty()) {
      std::fprintf(stderr, "pmonge-serve: --calibrate needs a path\n");
      return 2;
    }
    try {
      const auto prof = pmonge::plan::calibrate();
      pmonge::plan::save_profile(prof, path);
      std::fprintf(stderr, "pmonge-serve: wrote profile \"%s\" (%s)\n",
                   path.c_str(), prof.id.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pmonge-serve: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  pmonge::serve::ServiceOptions opts;
  opts.queue_capacity = static_cast<std::size_t>(cli.get_int("queue", 1024));
  opts.batch_max = static_cast<std::size_t>(cli.get_int("batch", 64));
  opts.cache_capacity = static_cast<std::size_t>(cli.get_int("cache", 4096));
  opts.cache_shards = static_cast<std::size_t>(cli.get_int("shards", 8));
  if (cli.has("no-batch")) opts.coalesce = false;
  if (cli.has("no-cache")) opts.cache_capacity = 0;
  opts.model = parse_model(cli.get("model", "crcw"));
  opts.default_deadline_ms = cli.get_int("deadline-ms", -1);
  opts.max_register_cells =
      static_cast<std::size_t>(cli.get_int("max-cells", std::int64_t{1} << 24));
  if (cli.has("no-plan")) opts.planner = false;
  opts.resilience.max_retries =
      static_cast<std::size_t>(cli.get_int("retries", 3));
  opts.resilience.op_timeout_ms = cli.get_int("op-timeout-ms", -1);
  opts.resilience.breaker_threshold =
      static_cast<std::size_t>(cli.get_int("breaker-threshold", 5));
  opts.resilience.breaker_cooldown =
      static_cast<std::size_t>(cli.get_int("breaker-cooldown", 32));

  // Cost profile: --profile beats PMONGE_PROFILE beats the built-in.
  // A profile that cannot be loaded is a hard startup error (exit 2
  // quoting the path), never a silent fallback.
  std::string profile_path = cli.get("profile", "");
  if (profile_path.empty()) {
    if (const char* env = std::getenv("PMONGE_PROFILE")) profile_path = env;
  }
  if (!profile_path.empty()) {
    try {
      opts.profile = pmonge::plan::load_profile(profile_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pmonge-serve: %s\n", e.what());
      return 2;
    }
  }

  pmonge::rpc::BackpressureLimits limits;
  limits.max_inflight =
      static_cast<std::size_t>(cli.get_int("max-inflight", 128));
  if (limits.overload_inflight < limits.max_inflight * 2) {
    limits.overload_inflight = limits.max_inflight * 2;
  }

  pmonge::serve::Service service(opts);

  if (cli.has("listen")) {
    // --listen HOST:PORT (":PORT" and bare "PORT" default the host).
    const std::string addr = cli.get("listen", "");
    pmonge::rpc::ServerOptions sopts;
    sopts.limits = limits;
    const std::size_t colon = addr.rfind(':');
    std::string port_str;
    if (colon == std::string::npos) {
      port_str = addr;
    } else {
      if (colon > 0) sopts.host = addr.substr(0, colon);
      port_str = addr.substr(colon + 1);
    }
    try {
      if (port_str.empty()) throw std::invalid_argument("empty port");
      const unsigned long p = std::stoul(port_str);
      if (p > 65535) throw std::out_of_range("port > 65535");
      sopts.port = static_cast<std::uint16_t>(p);
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "pmonge-serve: --listen wants HOST:PORT, got \"%s\"\n",
                   addr.c_str());
      return 2;
    }
    sopts.max_conns = static_cast<std::size_t>(cli.get_int("max-conns", 256));
    sopts.max_line_bytes =
        static_cast<std::size_t>(cli.get_int("max-line-bytes", 1 << 20));
    sopts.idle_timeout_ms = cli.get_int("idle-timeout-ms", 300000);
    sopts.drain_timeout_ms = cli.get_int("drain-timeout-ms", 5000);

    pmonge::rpc::Server server(service, sopts);
    try {
      server.listen();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pmonge-serve: %s\n", e.what());
      return 2;
    }
    service.set_extra_stats(
        "rpc", [&server] { return server.stats_json(); });

    g_server.store(&server, std::memory_order_release);
    struct sigaction sa {};
    sa.sa_handler = handle_stop_signal;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::fprintf(stderr, "pmonge-serve: listening on %s:%u\n",
                 sopts.host.c_str(), static_cast<unsigned>(server.port()));
    server.run();
    g_server.store(nullptr, std::memory_order_release);

    const pmonge::rpc::ServerStats& st = server.stats();
    std::fprintf(stderr,
                 "pmonge-serve: drained (conns=%llu lines=%llu "
                 "responses=%llu dropped=%llu)\n",
                 static_cast<unsigned long long>(st.accepted.load()),
                 static_cast<unsigned long long>(st.lines_in.load()),
                 static_cast<unsigned long long>(st.responses_out.load()),
                 static_cast<unsigned long long>(st.dropped_conns.load() +
                                                 st.overflow_drops.load()));
    return write_trace(trace_out);
  }

  // stdin mode.  The reader thread submits lines as stdin yields them
  // (so bursts actually coalesce); the main thread awaits and prints in
  // submission order.  The limiter is the reader-side valve of the
  // shared backpressure contract: once max_inflight submissions are
  // unanswered, the reader blocks instead of growing `pending`.
  pmonge::rpc::InflightLimiter limiter(limits.max_inflight);
  std::atomic<std::uint64_t> lines_in{0};
  std::uint64_t responses_out = 0;

  // An output slot is either an already-serialized response (answered
  // on the reader thread: a cached hit, a control op, a rejection or a
  // query run inline) or a future the worker will fulfill.  Ready slots
  // draw their buffers from `spare`, a small pool of retired response
  // strings, so a steady stream recycles warm capacity instead of
  // allocating per line.
  struct OutItem {
    std::future<std::string> fut;
    std::string ready;
    bool is_ready = false;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<OutItem> pending;
  std::vector<std::string> spare;  // pooled response buffers (under mu)
  bool done = false;

  std::thread reader([&] {
    std::string line;
    pmonge::serve::IdleBank idle;  // time blocked in getline funds grants
    while (true) {
      const auto wait_from = pmonge::serve::ServeClock::now();
      if (!std::getline(std::cin, line)) break;
      const auto read_at = pmonge::serve::ServeClock::now();
      idle.waited(wait_from, read_at);
      if (line.empty()) continue;
      limiter.acquire();
      lines_in.fetch_add(1, std::memory_order_relaxed);
      OutItem item;
      bool pooled = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!spare.empty()) {
          item.ready = std::move(spare.back());
          spare.pop_back();
          pooled = true;
        }
      }
      item.ready.clear();
      if (pooled) {
        pmonge::support::alloc_note_pool_hit();
      } else {
        pmonge::support::alloc_note_pool_miss();
      }
      // The line's one service call, under one inline grant while the
      // idle bank lasts.  Only a line that queues gets a promise.
      pmonge::serve::InlineAllowance allowance = idle.grant(read_at);
      std::shared_ptr<std::promise<std::string>> answer;
      item.is_ready = service.submit_line(
          line, item.ready, allowance,
          [&]() -> pmonge::serve::Service::ResponseCallback {
            answer = std::make_shared<std::promise<std::string>>();
            return [answer](std::string resp) {
              answer->set_value(std::move(resp));
            };
          });
      if (!item.is_ready) item.fut = answer->get_future();
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(item));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
  });

  while (true) {
    OutItem item;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !pending.empty(); });
      if (pending.empty()) break;
      item = std::move(pending.front());
      pending.pop_front();
    }
    if (!item.is_ready) {
      item.ready.clear();
      item.ready += item.fut.get();
    }
    const std::string& resp = item.ready;
    limiter.release();
    const bool wrote =
        std::fwrite(resp.data(), 1, resp.size(), stdout) == resp.size() &&
        std::fputc('\n', stdout) != EOF && std::fflush(stdout) == 0;
    if (!wrote) {
      // The consumer went away (closed pipe).  SIGPIPE is ignored, so
      // this is an orderly exit: report what was served and what was
      // still in flight, then leave without unwinding -- the reader may
      // be parked in getline() and std::exit() skips joining it.
      std::fprintf(
          stderr,
          "pmonge-serve: stdout closed; exiting (lines=%llu responses=%llu "
          "in_flight=%llu)\n",
          static_cast<unsigned long long>(
              lines_in.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(responses_out),
          static_cast<unsigned long long>(limiter.inflight()));
      std::exit(0);
    }
    ++responses_out;
    {
      // Retire the response buffer into the pool (capacity kept).  The
      // pool never outgrows the inflight window, so memory stays bounded.
      std::lock_guard<std::mutex> lock(mu);
      if (spare.size() < limits.max_inflight) {
        spare.push_back(std::move(item.ready));
      }
    }
  }

  reader.join();

  return write_trace(trace_out);
}
