// hot_hits: a closed loop over TCP in which every measured request is a
// result-cache hit.  Two connections keep 16 pipelined requests each
// outstanding (below the server's 128-line inflight valve), cycling over
// rowmin / rowmax / staircase_rowmin on 64-row operands.  The rpc loop,
// the codec and the cache read path do all the work; admission, batcher,
// plan, index, par and exec do none.
#include <iostream>
#include <memory>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kConns = 2;
constexpr std::size_t kDepth = 16;
constexpr std::size_t kCycle = 4096;  // pre-built lines per connection
constexpr std::int64_t kCols = 256;

}  // namespace

Result run_hot_hits(const Options& opt) {
  const Layout layout = make_layout();
  pin_self(layout.generator);

  std::vector<std::vector<std::string>> lines(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    lines[c] = hot_lines(opt.seed, c, kCycle, 0, 1);
  }
  const std::string reg_monge = register_line("monge", 2 * opt.seed + 1, kHotRows, kCols);
  const std::string reg_stair = register_line("staircase", 2 * opt.seed + 2, kHotRows, kCols);

  // Setup: launch, listen, register.  Repeated; the last one stays up.
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<pmonge::rpc::Client> ctl;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctl.reset();
    server.reset();
    const std::uint64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(opt.serve_bin, layout.server, layout.lanes, false);
    ctl = std::make_unique<pmonge::rpc::Client>("127.0.0.1", server->port());
    control(*ctl, reg_monge);
    control(*ctl, reg_stair);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_s = median(setups);

  // Verification: the reference service's bytes for every pre-built line.
  Reference ref;
  ref.request(reg_monge);
  ref.request(reg_stair);
  std::vector<std::vector<std::string>> expected(kConns);
  for (std::size_t c = 0; c < kConns; ++c) expected[c] = ref.answer(lines[c]);

  // Warm-up: each connection's first cycle pass touches all 192
  // signatures; then the loop runs for the fixed warm-up time.
  Conns conns;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<LoopConn>(server->port()));
  }
  auto awake = std::make_unique<IdleSpinners>(layout.server);
  const PhaseResult warm =
      closed_loop(conns, lines, expected, kDepth, kWarmupSeconds);

  Counters k;
  k.before = control(*ctl, "{\"op\":\"stats\"}");
  const double cpu0 = process_cpu_us(server->pid());
  const double steal0 = steal_ms(layout.all);
  PhaseResult m = closed_loop(conns, lines, expected, kDepth, opt.seconds);
  const double steal = steal_ms(layout.all) - steal0;
  const double cpu_us = process_cpu_us(server->pid()) - cpu0;
  k.after = control(*ctl, "{\"op\":\"stats\"}");
  const double rss = peak_rss_mib(server->pid());
  awake.reset();
  conns.clear();
  ctl.reset();
  server->stop();

  report_host(layout, static_cast<std::size_t>(k.after_value("exec/threads")),
              k.after.at("build").at("git").as_string());
  report_tally("warmup", warm.tally);
  report_tally("measured", m.tally);
  const double p50 = m.latency_p50();
  report_latency("latency", m.latency_us);
  const double throughput = median(m.window_rate);
  const auto ok = static_cast<double>(std::max<std::uint64_t>(1, m.tally.ok));
  report_windows(m, 0);
  report_counters(k);
  info("env", "steal_ms=" + num(steal, 1) + " server_cpu_us_per_op=" + num(cpu_us / ok));

  Result res;
  account(res, m.tally);
  if (warm.tally.failed + warm.tally.mismatched > 0) res.correct = false;
  if (!opt.trace) {
    res.set("throughput_ops_s", throughput, "ops/s");
    res.set("latency_p50_us", p50, "us");
    res.set("setup_s", setup_s, "s");
    res.set("peak_rss_mb", rss, "MiB");
    return res;
  }

  // Traced run.  Tracing would switch the server off the cached-hit path
  // this workload exists to measure, so the per-layer split comes from
  // the untraced window's counters plus an in-process replay of the same
  // lines against the reference service.
  std::vector<std::string> all_lines;
  std::vector<std::string> all_expected;
  for (std::size_t c = 0; c < kConns; ++c) {
    all_lines.insert(all_lines.end(), lines[c].begin(), lines[c].end());
    all_expected.insert(all_expected.end(), expected[c].begin(), expected[c].end());
  }
  SpanLog spans;
  const ReplayTimings rt = replay_layers(all_lines, all_expected, ref.service(), &spans);

  const double hits = k.delta("cache/hits");
  const double lookups = hits + k.delta("cache/misses");
  const double plan_lookups = k.delta("planner/plan_cache_hits") + k.delta("planner/plan_cache_misses");
  res.set("rpc.transport_us", p50 - rt.serve_fast_ns / 1e3, "us");
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
  res.set("admission.queue_high_water", k.after_value("queue/high_water"), "count");
  res.set("admission.refused", k.delta("queue/overloaded") + k.delta("rpc/overload_rejected"), "count");
  res.set("plan.cache_hit_ratio",
          plan_lookups > 0 ? k.delta("planner/plan_cache_hits") / plan_lookups : 0, "ratio");
  res.set("index.lookups_per_op", k.delta("index/lookups") / ok, "count");
  res.set("pram.charged_time", k.delta("charged/time") / ok, "steps");
  res.set("pram.charged_work", k.delta("charged/work") / ok, "ops");
  res.set("exec.pool_batches_per_op", k.delta("exec/batches") / ok, "count");
  res.set("exec.chunks_per_op", k.exec_chunks_delta() / ok, "count");
  res.set("exec.submit_wait_us_per_op", k.delta("exec/submit_wait_us") / ok, "us");
  res.set("exec.lane_utilization",
          k.exec_busy_us_delta() / (k.after_value("exec/threads") * opt.seconds * 1e6), "ratio");
  res.set("proc.cpu_us_per_op", cpu_us / ok, "us");
  res.set("env.steal_ms", steal, "ms");

  // Self time per op: the fast path splits into codec, cache probe and
  // response assembly; the rest of the server's CPU per op is transport.
  const double codec_us = rt.canonicalize_ns / 1e3;
  const double cache_us = rt.get_hit_ns / 1e3;
  const double protocol_us = std::max(0.0, rt.serve_fast_ns - rt.canonicalize_ns - rt.get_hit_ns) / 1e3;
  const double rpc_us = std::max(0.0, cpu_us / ok - rt.serve_fast_ns / 1e3);
  res.set("self.rpc_us", rpc_us, "us");
  res.set("self.codec_us", codec_us, "us");
  res.set("self.cache_us", cache_us, "us");
  res.set("self.protocol_us", protocol_us, "us");
  res.set("self.sum_us", rpc_us + codec_us + cache_us + protocol_us, "us");
  res.set("self.reference_us", throughput > 0 ? 1e6 / throughput : 0, "us");
  res.set("trace.overhead_us", (rt.traced_serve_fast_ns - rt.serve_fast_ns) / 1e3, "us");
  info("self time per op (us)", "rpc=" + num(rpc_us) + " codec=" + num(codec_us) +
                                    " cache=" + num(cache_us) + " protocol=" + num(protocol_us) +
                                    " sum=" + num(rpc_us + codec_us + cache_us + protocol_us) +
                                    " vs 1/throughput=" + num(1e6 / std::max(1.0, throughput)));
  if (!opt.out_dir.empty()) {
    write_spans(opt.out_dir + "/hot_hits-seed" + std::to_string(opt.seed) + ".json", spans.take());
  }
  return res;
}

}  // namespace perfbench
