// Epoll-based non-blocking TCP front-end for serve::Service: the same
// one-JSON-object-per-line protocol pmonge-serve speaks on stdin, framed
// per connection and multiplexed onto the one shared admission/batching
// pipeline.  Response bytes are identical to stdin mode by construction
// -- the server only frames lines in and writes the service's canonical
// response strings out, in per-connection submission order.
//
// One thread runs the event loop (run()).  Control ops are answered on
// the loop thread itself, and so are cheap queries that find the
// admission queue idle: each read grants the lines it framed one
// serve::InlineAllowance while the loop's serve::IdleBank (time waiting
// in epoll_wait minus time busy) lasts.  The service's worker resolves
// the queued rest on its own thread and wakes the loop through an
// eventfd.  Everything
// per-connection (read buffer, pending-response window, outbound buffer)
// is touched only by the loop thread; the worker's completion path
// touches one atomic per response plus the wakeup queue.
//
// Robustness contract (docs/networking.md):
//   * per-connection backpressure per rpc/backpressure.hpp -- stop
//     reading at the inflight/soft valves, `overloaded` rejections for
//     framed excess, connection drop at the hard valve; memory per
//     connection is bounded by construction;
//   * --max-conns: surplus connections are answered one `overloaded:
//     connection limit` line and closed;
//   * oversized lines answer `bad_request: line exceeds N bytes` and the
//     connection resynchronizes at the next newline;
//   * idle connections (no traffic, nothing in flight) are closed after
//     idle_timeout_ms;
//   * SIGPIPE-safe: all writes use MSG_NOSIGNAL; a vanished peer is a
//     closed connection, never a dead process;
//   * request_stop() (async-signal-safe) starts a graceful drain: stop
//     accepting, stop reading, flush every in-flight response, then
//     close -- bounded by drain_timeout_ms;
//   * fault sites rpc.conn_drop / rpc.read_stall (docs/robustness.md)
//     inject abrupt disconnects and read-side stalls for the chaos
//     harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "rpc/backpressure.hpp"
#include "serve/json.hpp"

namespace pmonge::serve {
class Service;
}

namespace pmonge::rpc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;               // 0 = ephemeral (see Server::port())
  std::size_t max_conns = 256;
  std::size_t max_line_bytes = 1u << 20;
  std::int64_t idle_timeout_ms = 300000;  // <= 0 disables
  std::int64_t drain_timeout_ms = 5000;   // graceful-drain bound
  BackpressureLimits limits;
};

/// Monotone transport counters (gauges noted), exported through the
/// service's `stats` op as the "rpc" section and as pmonge_rpc_* in the
/// Prometheus exposition.  All relaxed atomics, same contract as
/// support::Counter.
struct ServerStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_conns{0};   // over --max-conns
  std::atomic<std::uint64_t> closed{0};           // orderly closes
  std::atomic<std::uint64_t> dropped_conns{0};    // rpc.conn_drop injections
  std::atomic<std::uint64_t> overflow_drops{0};   // hard-valve drops
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> lines_in{0};
  std::atomic<std::uint64_t> responses_out{0};
  std::atomic<std::uint64_t> oversized_lines{0};
  std::atomic<std::uint64_t> overload_rejected{0};  // framed-excess rejections
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> read_pauses{0};      // backpressure engagements
  std::atomic<std::uint64_t> active_conns{0};     // gauge
  std::atomic<std::uint64_t> conn_high_water{0};  // peak concurrent conns
  std::atomic<std::uint64_t> outbound_high_water{0};  // peak per-conn bytes
};

class Server {
 public:
  Server(serve::Service& service, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen; throws std::runtime_error naming host:port on
  /// failure.  Must be called before run().
  void listen();

  /// The bound port (after listen()); the way tests and --listen :0
  /// discover an ephemeral port.
  std::uint16_t port() const;

  /// Run the event loop in the calling thread until request_stop(),
  /// then drain gracefully and return.
  void run();

  /// Begin a graceful drain.  Async-signal-safe (one atomic store and
  /// one write(2)); callable from any thread or a signal handler.
  void request_stop();

  const ServerStats& stats() const;

  /// The "rpc" stats section (wired into Service::set_extra_stats by
  /// pmonge-serve --listen).
  serve::Json stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pmonge::rpc
