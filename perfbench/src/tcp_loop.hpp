// The single-threaded event-loop load generator of the TCP workloads.
// Connections are opened with the public rpc::Client and responses are
// framed with rpc::LineFramer; every request byte is built before the
// loop starts, and each readiness event costs one write per connection.
// The loop busy-polls (it never sleeps), so it needs CPUs of its own.
//
//   closed loop: each connection keeps `depth` requests outstanding,
//                cycling through its pre-built lines; latency runs from
//                the write to the response bytes.
//   open loop:   bursts due at scheduled times are written whether or
//                not earlier answers came back; latency runs from the
//                burst's due time, so generator lateness and stalls
//                count against the server's answer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core.hpp"
#include "rpc/client.hpp"
#include "rpc/framing.hpp"

namespace perfbench {

/// One non-blocking connection of the generator.
struct LoopConn {
  pmonge::rpc::Client client;  // owns the socket
  pmonge::rpc::LineFramer framer{std::size_t{1} << 20};
  std::string outbuf;          // bytes queued but not yet written
  std::uint64_t sent = 0;      // closed loop: requests queued so far
  std::uint64_t received = 0;  // closed loop: responses framed so far

  explicit LoopConn(std::uint16_t port);
  int fd() const { return client.fd(); }
};

using Conns = std::vector<std::unique_ptr<LoopConn>>;

inline constexpr double kWindowSeconds = 1.0;

/// Per-phase measurements.  Latencies of ops that were not ok are +inf:
/// a refused or failed op misses every latency limit.  Each latency is
/// filed under the 1-s window (from the phase start) it completed in --
/// in the open loop, the window it was due in.
struct PhaseResult {
  Tally tally;
  std::vector<double> latency_us;
  std::vector<std::uint32_t> window;  // parallel to latency_us
  std::vector<double> window_rate;    // closed loops: ok ops/s per window
  std::uint64_t start_ns = 0;         // phase start
  double seconds = 0;                 // phase start to its last response
  std::vector<double> late_us;        // open loop: per-burst lateness

  void record(double latency, std::uint64_t at_ns) {
    latency_us.push_back(latency);
    window.push_back(static_cast<std::uint32_t>(
        static_cast<double>(at_ns > start_ns ? at_ns - start_ns : 0) / (kWindowSeconds * 1e9)));
  }
  /// Median over windows of the per-window median latency.
  double latency_p50() const { return windowed_median(latency_us, window); }
};

/// Closed loop: connection c cycles through `lines[c]`, whose expected
/// responses are `expected[c]`, for `seconds`, then stops sending and
/// drains.  Ok responses are counted per window.
PhaseResult closed_loop(Conns& conns,
                        const std::vector<std::vector<std::string>>& lines,
                        const std::vector<std::vector<std::string>>& expected,
                        std::size_t depth, double seconds);

/// What an open-loop phase saw, indexed like BurstPlan::lines.
struct OpenLoopLog {
  std::vector<std::string> responses;
  std::vector<std::uint64_t> due_ns;
  std::vector<std::uint64_t> send_ns;
  std::vector<std::uint64_t> recv_ns;  // 0 = never answered
};

/// Open loop over bursts [first, last) of `plan`: burst b is due
/// plan.due_ns[b] - base_ns after the phase starts, and its line k goes
/// to connection k % conns.  Fills `log`; scoring is separate because
/// the expected responses are computed after the run.
PhaseResult open_loop(Conns& conns, const BurstPlan& plan,
                      std::size_t lines_per_burst, std::size_t first,
                      std::size_t last, std::uint64_t base_ns, OpenLoopLog& log);

/// Classify lines [lo, hi) of an open-loop log against `expected` and
/// record their due-time latencies into `r`, the phase that sent them.
void score_open_loop(const OpenLoopLog& log, std::size_t lo, std::size_t hi,
                     const std::vector<std::string>& expected, PhaseResult& r);

}  // namespace perfbench
