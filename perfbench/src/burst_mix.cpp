// burst_mix: an open loop over TCP.  Bursts of 32 request lines, spread
// over 4 connections, arrive as a Poisson process at a fixed mean rate;
// the mix (rowmin, rowmax, staircase_rowmin, submatrix_min,
// submatrix_max, string_edit) runs over 4096 x 1024 Monge and staircase
// operands with the submatrix index built in setup.  Distinct row
// queries outnumber the 4096-entry result cache three times over and
// submatrix regions never repeat, so each burst backs up the admission
// queue and runs the batcher, planner, index, par/apps kernels and exec.
#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

using pmonge::serve::Json;

namespace {

constexpr std::size_t kConns = 4;
constexpr std::size_t kLinesPerBurst = 32;
constexpr std::int64_t kRows = 4096;
constexpr std::int64_t kCols = 1024;
const char* const kIndexBuild = "{\"op\":\"index_build\",\"array\":0}";
const char* const kStats = "{\"op\":\"stats\"}";
const char* const kTrace = "{\"op\":\"trace\"}";
// The server drops a connection whose pending output passes 8 MiB, so a
// traced window is drained in slices small enough for one `trace` reply.
constexpr std::uint64_t kTraceSliceNs = 2'000'000'000ULL;

/// A launched server with registered operands and a built index.  The
/// control connection always closes before the server stops.
struct Tcp {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<pmonge::rpc::Client> ctl;

  Tcp() = default;
  Tcp(Tcp&&) = default;
  Tcp& operator=(Tcp&& other) noexcept {
    close();
    server = std::move(other.server);
    ctl = std::move(other.ctl);
    return *this;
  }
  ~Tcp() { close(); }
  void close() {
    ctl.reset();
    server.reset();
  }
};

Tcp launch(const Options& opt, const Layout& layout, bool traced,
           const std::vector<std::string>& setup_lines) {
  Tcp t;
  t.server = std::make_unique<ServerProcess>(opt.serve_bin, layout.server, layout.lanes, traced);
  t.ctl = std::make_unique<pmonge::rpc::Client>("127.0.0.1", t.server->port());
  for (const std::string& l : setup_lines) control(*t.ctl, l);
  return t;
}

/// One pass: warm-up bursts, then the measured bursts between two stats
/// snapshots.  A traced pass sends the measured bursts in slices and
/// drains the server's spans after each, with no traffic in flight.
struct Pass {
  PhaseResult warm;
  PhaseResult m;
  OpenLoopLog log;
  Counters k;
  double cpu_us = 0;
  double steal = 0;
  double rss = 0;
  std::vector<Json> traces;
};

Pass run_pass(Tcp& t, const BurstPlan& plan, const Layout& layout, bool traced) {
  Pass p;
  const IdleSpinners awake(layout.server);
  Conns conns;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<LoopConn>(t.server->port()));
  }
  p.warm = open_loop(conns, plan, kLinesPerBurst, 0, plan.warm_bursts, 0, p.log);
  if (traced) control(*t.ctl, kTrace);  // discard the warm-up's spans
  p.k.before = control(*t.ctl, kStats);
  const double cpu0 = process_cpu_us(t.server->pid());
  const double steal0 = steal_ms(layout.all);
  const auto measured_from = static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  if (!traced) {
    p.m = open_loop(conns, plan, kLinesPerBurst, plan.warm_bursts, plan.due_ns.size(),
                    measured_from, p.log);
  }
  for (std::size_t first = plan.warm_bursts; traced && first < plan.due_ns.size();) {
    const std::uint64_t base = plan.due_ns[first] - (plan.due_ns[first] - measured_from) % kTraceSliceNs;
    std::size_t last = first;
    while (last < plan.due_ns.size() && plan.due_ns[last] < base + kTraceSliceNs) ++last;
    const PhaseResult slice = open_loop(conns, plan, kLinesPerBurst, first, last, base, p.log);
    if (first == plan.warm_bursts) p.m.start_ns = slice.start_ns;
    p.m.tally.sent += slice.tally.sent;
    p.traces.push_back(control(*t.ctl, kTrace));
    first = last;
  }
  p.steal = steal_ms(layout.all) - steal0;
  p.cpu_us = process_cpu_us(t.server->pid()) - cpu0;
  p.k.after = control(*t.ctl, kStats);
  p.rss = peak_rss_mib(t.server->pid());
  return p;
}

/// Score a pass against the reference bytes: warm-up lines only count
/// toward correctness, measured lines give the op tally and latencies.
void score(Pass& p, const BurstPlan& plan, const std::vector<std::string>& expected) {
  const std::size_t split = plan.warm_bursts * kLinesPerBurst;
  score_open_loop(p.log, 0, split, expected, p.warm);
  score_open_loop(p.log, split, plan.lines.size(), expected, p.m);
}

std::string kernel_kind(const std::string& op) {
  if (op == "rowmin" || op == "rowmax") return "rowmin";
  if (op.starts_with("staircase")) return "staircase";
  if (op.starts_with("submatrix")) return "submatrix";
  return op;  // string_edit
}

/// What the server's spans say about the measured ops of a traced pass.
struct ServerSplit {
  double transport_us = 0;      // median client round trip minus server residency
  double admission_wait_us = 0;  // median serve.request start -> its serve.batch start
  double batch_size_p50 = 0;
  double index_route_share = 0;
  std::map<std::string, double> self_us;  // span name -> summed self time
  std::map<std::string, double> kernel_us;  // kernel kind -> summed self time
};

/// The complete ("X") events of a Chrome trace document as spans.
void append_spans(const Json& doc, std::vector<Span>& spans) {
  for (const Json& ev : doc.at("traceEvents").arr()) {
    if (ev.at("ph").as_string() != "X") continue;
    Span s;
    s.name = ev.at("name").as_string();
    s.lane = static_cast<std::uint32_t>(ev.at("tid").as_int());
    s.start_ns = static_cast<std::uint64_t>(ev.at("ts").as_int()) * 1000;
    s.end_ns = s.start_ns + static_cast<std::uint64_t>(ev.at("dur").as_int()) * 1000;
    if (const Json* args = ev.find("args")) {
      if (const Json* id = args->find("trace_id")) s.trace_id = static_cast<std::uint64_t>(id->as_int());
      if (const Json* d = args->find("detail")) s.detail = d->as_string();
      if (const Json* n = args->find("requests")) s.arg = n->as_double();
    }
    spans.push_back(std::move(s));
  }
}

ServerSplit split_server_spans(const std::vector<Json>& docs, const OpenLoopLog& log,
                               std::size_t lo, std::size_t hi) {
  std::vector<Span> spans;
  for (const Json& doc : docs) append_spans(doc, spans);
  link_by_lane(spans);
  const std::vector<std::uint64_t> self = self_times(spans);

  ServerSplit out;
  std::unordered_map<std::uint64_t, std::size_t> admit;
  std::unordered_map<std::uint64_t, std::size_t> request;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batches;
  std::vector<double> batch_sizes;
  double index_routes = 0;
  double submatrix_kernels = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.self_us[s.name] += static_cast<double>(self[i]) / 1e3;
    if (s.name == "serve.admit") admit[s.trace_id] = i;
    if (s.name == "serve.request") request[s.trace_id] = i;
    if (s.name == "serve.batch") {
      batches.emplace_back(s.start_ns, s.end_ns);
      batch_sizes.push_back(s.arg);
    }
    if (s.name == "serve.kernel") {
      std::int64_t g = s.parent;
      while (g >= 0 && spans[static_cast<std::size_t>(g)].name != "serve.group") {
        g = spans[static_cast<std::size_t>(g)].parent;
      }
      const std::string op = g >= 0 ? spans[static_cast<std::size_t>(g)].detail : "";
      out.kernel_us[kernel_kind(op)] += static_cast<double>(self[i]) / 1e3;
      if (op.starts_with("submatrix")) {
        submatrix_kernels += 1;
        if (s.detail == "index") index_routes += 1;
      }
    }
  }
  std::sort(batches.begin(), batches.end());
  out.batch_size_p50 = median(batch_sizes);
  out.index_route_share = submatrix_kernels > 0 ? index_routes / submatrix_kernels : 0;

  std::vector<double> transport;
  std::vector<double> wait;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint64_t id = i + 1;  // the plan's trace_id of line i
    const auto a = admit.find(id);
    const auto r = request.find(id);
    if (a == admit.end() || r == request.end() || log.recv_ns[i] == 0) continue;
    const Span& rs = spans[r->second];
    const double resident_us =
        static_cast<double>(rs.end_ns - std::min(rs.start_ns, spans[a->second].start_ns)) / 1e3;
    transport.push_back(static_cast<double>(log.recv_ns[i] - log.send_ns[i]) / 1e3 - resident_us);
    // The batch that answered the request is the one running when it ended.
    auto b = std::upper_bound(batches.begin(), batches.end(),
                              std::pair{rs.end_ns, ~std::uint64_t{0}});
    if (b != batches.begin()) {
      --b;
      wait.push_back(b->first > rs.start_ns ? static_cast<double>(b->first - rs.start_ns) / 1e3 : 0);
    }
  }
  out.transport_us = median(transport);
  out.admission_wait_us = median(wait);
  return out;
}

}  // namespace

Result run_burst_mix(const Options& opt) {
  const Layout layout = make_layout();
  pin_self(layout.generator);

  BurstSpec spec;
  spec.rate = opt.burst_rate;
  spec.warm_s = kWarmupSeconds;
  spec.measure_s = opt.seconds;
  spec.lines_per_burst = kLinesPerBurst;
  spec.rows = kRows;
  spec.cols = kCols;
  const BurstPlan plan = burst_plan(opt.seed, spec);
  const std::vector<std::string> registrations = {
      register_line("monge", 2 * opt.seed + 1, kRows, kCols),
      register_line("staircase", 2 * opt.seed + 2, kRows, kCols)};
  std::vector<std::string> setup_lines = registrations;
  setup_lines.emplace_back(kIndexBuild);

  // Setup: launch, listen, register, build the index.  Repeated; the
  // last one stays up.
  Tcp tcp;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tcp.close();
    const std::uint64_t t0 = now_ns();
    tcp = launch(opt, layout, false, setup_lines);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_s = median(setups);
  const double build_ms =
      stat_at(control(*tcp.ctl, "{\"op\":\"index_stats\",\"array\":0}"), "build_us") / 1e3;

  Pass pass = run_pass(tcp, plan, layout, false);
  const std::string git = pass.k.after.at("build").at("git").as_string();
  const auto lanes = static_cast<std::size_t>(pass.k.after_value("exec/threads"));
  tcp.close();

  // Verification: the reference answers every line on the same operands
  // (without an index, so indexed answers are checked against the direct
  // kernels).
  Reference ref;
  for (const std::string& l : registrations) ref.request(l);
  const std::vector<std::string> expected = ref.answer(plan.lines);
  score(pass, plan, expected);

  report_host(layout, lanes, git);
  info("schedule", num(opt.burst_rate, 1) + " bursts/s x " + std::to_string(kLinesPerBurst) +
                       " lines over " + std::to_string(kConns) + " conns; " +
                       std::to_string(plan.due_ns.size() - plan.warm_bursts) + " measured bursts");
  report_tally("warmup", pass.warm.tally);
  report_tally("measured", pass.m.tally);
  const double p50 = pass.m.latency_p50();
  report_latency("latency (from due time)", pass.m.latency_us);
  report_windows(pass.m, 0);
  report_latency("generator lateness", pass.m.late_us);
  const double throughput = static_cast<double>(pass.m.tally.ok) / pass.m.seconds;
  const auto ok = static_cast<double>(std::max<std::uint64_t>(1, pass.m.tally.ok));
  info("goodput", num(throughput, 1) + " ops/s over " + num(pass.m.seconds, 3) + " s");
  report_counters(pass.k);
  info("env", "steal_ms=" + num(pass.steal, 1) +
                  " server_cpu_us_per_op=" + num(pass.cpu_us / ok));

  Result res;
  account(res, pass.m.tally);
  if (pass.warm.tally.failed + pass.warm.tally.mismatched > 0) res.correct = false;
  if (!opt.trace) {
    res.set("throughput_ops_s", throughput, "ops/s");
    res.set("latency_p50_us", p50, "us");
    res.set("setup_s", setup_s, "s");
    res.set("peak_rss_mb", pass.rss, "MiB");
    return res;
  }

  // Traced pass: the same stream with trace ids, against a server with
  // tracing on.  Its answers must match the same reference bytes.
  BurstSpec tspec = spec;
  tspec.trace_ids = true;
  const BurstPlan tplan = burst_plan(opt.seed, tspec);
  Tcp traced = launch(opt, layout, true, setup_lines);
  Pass tp = run_pass(traced, tplan, layout, true);
  traced.close();
  score(tp, tplan, expected);
  report_tally("traced measured", tp.m.tally);
  report_latency("traced latency (from due time)", tp.m.latency_us);
  const double traced_p50 = tp.m.latency_p50();
  if (tp.m.tally.failed + tp.m.tally.mismatched + tp.warm.tally.failed +
          tp.warm.tally.mismatched > 0) {
    res.correct = false;
  }

  const std::size_t split = plan.warm_bursts * kLinesPerBurst;
  const std::size_t total = plan.lines.size();
  const ServerSplit ss = split_server_spans(tp.traces, tp.log, split, total);
  const std::vector<std::string> measured(plan.lines.begin() + static_cast<std::ptrdiff_t>(split),
                                          plan.lines.end());
  const std::vector<std::string> measured_expected(
      expected.begin() + static_cast<std::ptrdiff_t>(split), expected.end());
  const ReplayTimings rt = replay_layers(measured, measured_expected, ref.service(), nullptr);

  const Counters& k = pass.k;
  const double hits = k.delta("cache/hits");
  const double lookups = hits + k.delta("cache/misses");
  const double plan_lookups = k.delta("planner/plan_cache_hits") + k.delta("planner/plan_cache_misses");
  auto self_of = [&](const char* name) {
    const auto it = ss.self_us.find(name);
    return it == ss.self_us.end() ? 0.0 : it->second / ok;
  };
  std::map<std::string, double> kind_ops;
  for (std::size_t i = split; i < total; ++i) kind_ops[kernel_kind(plan.ops[i])] += 1;
  auto kernel_of = [&](const char* kind) {
    const auto it = ss.kernel_us.find(kind);
    const double n = kind_ops[kind];
    return it == ss.kernel_us.end() || n == 0 ? 0.0 : it->second / n;
  };

  res.set("rpc.transport_us", ss.transport_us, "us");
  res.set("rpc.read_pauses", k.delta("rpc/read_pauses"), "count");
  res.set("rpc.bytes_per_op", (k.delta("rpc/bytes_in") + k.delta("rpc/bytes_out")) / ok, "B");
  res.set("codec.canonicalize_ns", rt.canonicalize_ns, "ns");
  res.set("codec.fast_path_share", k.delta("alloc/fast_path_hits") / ok, "ratio");
  res.set("cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  res.set("cache.evictions_per_op", k.delta("cache/evictions") / ok, "count");
  res.set("cache.get_hit_ns", rt.get_hit_ns, "ns");
  res.set("protocol.parse_ns", rt.parse_ns, "ns");
  res.set("protocol.respond_ns", rt.respond_ns, "ns");
  res.set("serve.fast_path_ns", rt.serve_fast_ns, "ns");
  res.set("admission.wait_us", ss.admission_wait_us, "us");
  res.set("admission.queue_high_water", k.after_value("queue/high_water"), "count");
  res.set("admission.refused", k.delta("queue/overloaded") + k.delta("rpc/overload_rejected"), "count");
  res.set("batcher.batch_size_p50", ss.batch_size_p50, "count");
  res.set("batcher.self_us", self_of("serve.batch") + self_of("serve.group"), "us");
  res.set("plan.select_us", self_of("plan.select"), "us");
  res.set("plan.cache_hit_ratio",
          plan_lookups > 0 ? k.delta("planner/plan_cache_hits") / plan_lookups : 0, "ratio");
  res.set("plan.index_route_share", ss.index_route_share, "ratio");
  res.set("index.lookup_us", self_of("index.lookup"), "us");
  res.set("index.lookups_per_op", k.delta("index/lookups") / ok, "count");
  res.set("index.build_ms", build_ms, "ms");
  res.set("kernel.rowmin_us", kernel_of("rowmin"), "us");
  res.set("kernel.staircase_us", kernel_of("staircase"), "us");
  res.set("kernel.submatrix_us", kernel_of("submatrix"), "us");
  res.set("kernel.string_edit_us", kernel_of("string_edit"), "us");
  res.set("pram.charged_time", k.delta("charged/time") / ok, "steps");
  res.set("pram.charged_work", k.delta("charged/work") / ok, "ops");
  res.set("exec.pool_batches_per_op", k.delta("exec/batches") / ok, "count");
  res.set("exec.chunks_per_op", k.exec_chunks_delta() / ok, "count");
  res.set("exec.submit_wait_us_per_op", k.delta("exec/submit_wait_us") / ok, "us");
  res.set("exec.lane_utilization",
          k.exec_busy_us_delta() / (k.after_value("exec/threads") * pass.m.seconds * 1e6), "ratio");
  res.set("proc.cpu_us_per_op", pass.cpu_us / ok, "us");
  res.set("env.steal_ms", pass.steal, "ms");
  std::vector<double> late = pass.m.late_us;
  std::sort(late.begin(), late.end());
  res.set("gen.late_p50_us", quantile_sorted(late, 0.5).value, "us");
  res.set("gen.late_p99_us", quantile_sorted(late, 0.99).value, "us");

  // Self time per op, layer by layer, beside the untraced median.
  const std::vector<std::pair<const char*, double>> layers = {
      {"self.rpc_us", ss.transport_us},
      {"self.codec_us", rt.canonicalize_ns / 1e3},
      {"self.cache_us", rt.get_hit_ns / 1e3},
      {"self.protocol_us", (rt.parse_ns + rt.respond_ns) / 1e3},
      {"self.admission_us", ss.admission_wait_us},
      {"self.batcher_us", self_of("serve.batch") + self_of("serve.group")},
      {"self.plan_us", self_of("plan.select")},
      {"self.index_us", self_of("index.lookup")},
      {"self.kernel_us", self_of("serve.kernel")},
      {"self.exec_us", self_of("exec.jobs") + self_of("exec.chunks")}};
  double sum = 0;
  std::string line;
  for (const auto& [name, v] : layers) {
    res.set(name, v, "us");
    sum += v;
    line += std::string(name + 5) + "=" + num(v) + " ";
  }
  res.set("self.sum_us", sum, "us");
  res.set("self.reference_us", p50, "us");
  res.set("trace.dropped", tp.k.delta("trace/dropped"), "count");
  res.set("trace.overhead_us", traced_p50 - p50, "us");
  info("self time per op (us)", line + "sum=" + num(sum) + " vs latency_p50_us=" + num(p50));

  if (!opt.out_dir.empty()) {
    SpanLog bench;
    for (std::size_t i = split; i < total; ++i) {
      if (tp.log.recv_ns[i] == 0) continue;
      Span op{"client.op", tp.log.due_ns[i], tp.log.recv_ns[i], -1, i + 1, 0, "", 0};
      Span rtt{"rpc.round_trip", tp.log.send_ns[i], tp.log.recv_ns[i], -1, i + 1, 0, "", 0};
      bench.add(std::move(op));
      bench.add(std::move(rtt));
    }
    std::vector<Span> spans = bench.take();
    for (std::size_t i = 1; i < spans.size(); i += 2) spans[i].parent = static_cast<std::int64_t>(i - 1);
    write_spans(opt.out_dir + "/burst_mix-seed" + std::to_string(opt.seed) + ".json", spans);
  }
  return res;
}

}  // namespace perfbench
