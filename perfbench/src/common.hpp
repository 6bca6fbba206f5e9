// Plumbing shared by the three workloads: options, the CPU layout, the
// per-layer metric table, server counter deltas, the in-process
// reference service that every TCP response is checked against, and the
// human-readable report lines printed ahead of the result line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "sys.hpp"
#include "tcp_loop.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double burst_rate = 100;  // burst_mix bursts per second
  std::string serve_bin;    // pmonge-serve to launch
  std::string out_dir;      // where the traced run writes its spans
};

inline constexpr double kWarmupSeconds = 1.0;  // fixed, untimed warm-up
inline constexpr int kSetupReps = 9;           // setup_s is their median

/// Which CPUs run what.  The server gets the first allowed CPU and the
/// generator the last; kernel_batch runs on the first `lanes` CPUs.
/// Both the server and kernel_batch run `lanes` exec lanes.
struct Layout {
  std::vector<int> all;
  std::vector<int> server;
  std::vector<int> generator;
  std::vector<int> kernel;
  std::size_t lanes = 1;
};
Layout make_layout();

/// Every per-layer metric, in BENCHMARK.json order, with its unit.  A
/// traced run prints all of them; a layer the workload does not
/// exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Before/after snapshots of the server's `stats` op.
struct Counters {
  pmonge::serve::Json before;
  pmonge::serve::Json after;

  double delta(const std::string& path) const;
  double after_value(const std::string& path) const;
  double exec_chunks_delta() const;   // all lanes
  double exec_busy_us_delta() const;  // all lanes
};

/// The benchmark-owned in-process service: same operands, same request
/// lines, and the bytes every TCP response must equal.
class Reference {
 public:
  Reference();
  std::string request(const std::string& line) { return svc_->request(line); }
  std::vector<std::string> answer(const std::vector<std::string>& lines);
  pmonge::serve::Service& service() { return *svc_; }

 private:
  std::unique_ptr<pmonge::serve::Service> svc_;
};

/// Per-call costs of the serve layers without a server span, timed on an
/// in-process replay of the workload's request lines.
struct ReplayTimings {
  double canonicalize_ns = 0;  // RequestCodec::canonicalize_query
  double get_hit_ns = 0;       // ShardedLruCache::get_hit
  double parse_ns = 0;         // parse_request
  double respond_ns = 0;       // make_ok_response
  double serve_fast_ns = 0;    // Service::try_serve_fast
  double traced_serve_fast_ns = 0;  // the same with a benchmark span per call
};
ReplayTimings replay_layers(const std::vector<std::string>& lines,
                            const std::vector<std::string>& responses,
                            pmonge::serve::Service& svc, SpanLog* spans);

/// Report lines (stdout, ahead of the result line).
void info(const std::string& key, const std::string& value);
std::string num(double v, int digits = 3);
/// Prints the pooled p50/p90/p99/p99.9 of `lat` with sample counts.
void report_latency(const std::string& label, std::vector<double> lat);
void report_tally(const std::string& label, const Tally& t);
/// Per-window median latency (and rate, for closed loops), one line.
void report_windows(const PhaseResult& r, int rate_digits);
void report_host(const Layout& l, std::size_t exec_lanes, const std::string& git);
/// The measured window's server counter deltas, one line.
void report_counters(const Counters& k);

/// Fold an op tally into the result (refusals and failures count as
/// failed; mismatches and failures make the run incorrect).
void account(Result& res, const Tally& t);

/// Write spans as Chrome trace-event JSON (bench spans, for inspection).
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// `{"op":"register_random",...}` for a rows x cols operand of `kind`.
std::string register_line(const char* kind, std::uint64_t seed,
                          std::int64_t rows, std::int64_t cols);

/// The workloads.  Each prints its report lines and returns the result.
Result run_hot_hits(const Options& opt);
Result run_burst_mix(const Options& opt);
Result run_kernel_batch(const Options& opt);

}  // namespace perfbench
