#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

namespace perfbench {

using pmonge::serve::Json;

Layout make_layout() {
  Layout l;
  l.all = allowed_cpus();
  const std::size_t n = l.all.size();
  // A fixed lane count below nproc: two lanes wherever three CPUs exist.
  l.lanes = n >= 3 ? 2 : 1;
  if (n >= 2) {
    // One CPU for every server thread: with the server's threads kept on
    // one CPU, each burst's lines queue up before the worker runs, so
    // coalescing does not hinge on where the scheduler happened to put
    // the threads (spread over two CPUs, runs split into one-batch and
    // four-batch-per-burst modes whose p50 differed by 40%).
    l.server = {l.all.front()};
    l.generator = {l.all.back()};
    l.kernel.assign(l.all.begin(), l.all.begin() + static_cast<std::ptrdiff_t>(l.lanes));
  }
  return l;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kTable = {
      {"rpc.transport_us", "us"},
      {"rpc.read_pauses", "count"},
      {"rpc.bytes_per_op", "B"},
      {"codec.canonicalize_ns", "ns"},
      {"codec.fast_path_share", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_op", "count"},
      {"cache.get_hit_ns", "ns"},
      {"protocol.parse_ns", "ns"},
      {"protocol.respond_ns", "ns"},
      {"serve.fast_path_ns", "ns"},
      {"admission.wait_us", "us"},
      {"admission.queue_high_water", "count"},
      {"admission.refused", "count"},
      {"batcher.batch_size_p50", "count"},
      {"batcher.self_us", "us"},
      {"plan.select_us", "us"},
      {"plan.cache_hit_ratio", "ratio"},
      {"plan.index_route_share", "ratio"},
      {"index.lookup_us", "us"},
      {"index.lookups_per_op", "count"},
      {"index.build_ms", "ms"},
      {"kernel.rowmin_us", "us"},
      {"kernel.staircase_us", "us"},
      {"kernel.submatrix_us", "us"},
      {"kernel.string_edit_us", "us"},
      {"kernel.tube_us", "us"},
      {"pram.charged_time", "steps"},
      {"pram.charged_work", "ops"},
      {"exec.pool_batches_per_op", "count"},
      {"exec.chunks_per_op", "count"},
      {"exec.submit_wait_us_per_op", "us"},
      {"exec.lane_utilization", "ratio"},
      {"proc.cpu_us_per_op", "us"},
      {"env.steal_ms", "ms"},
      {"gen.late_p50_us", "us"},
      {"gen.late_p99_us", "us"},
      {"self.rpc_us", "us"},
      {"self.codec_us", "us"},
      {"self.cache_us", "us"},
      {"self.protocol_us", "us"},
      {"self.admission_us", "us"},
      {"self.batcher_us", "us"},
      {"self.plan_us", "us"},
      {"self.index_us", "us"},
      {"self.kernel_us", "us"},
      {"self.exec_us", "us"},
      {"self.sum_us", "us"},
      {"self.reference_us", "us"},
      {"trace.dropped", "count"},
      {"trace.overhead_us", "us"},
  };
  return kTable;
}

// ---------------------------------------------------------------------

double Counters::delta(const std::string& path) const {
  return stat_at(after, path) - stat_at(before, path);
}

double Counters::after_value(const std::string& path) const {
  return stat_at(after, path);
}

namespace {

double lane_sum(const Json& doc, const std::string& field) {
  double total = stat_at(doc, "exec/external/" + field);
  const Json* ex = doc.find("exec");
  const Json* workers = ex == nullptr ? nullptr : ex->find("workers");
  if (workers != nullptr && workers->type() == Json::Type::Array) {
    for (const Json& w : workers->arr()) total += stat_at(w, field);
  }
  return total;
}

}  // namespace

double Counters::exec_chunks_delta() const {
  return lane_sum(after, "chunks") - lane_sum(before, "chunks");
}

double Counters::exec_busy_us_delta() const {
  return lane_sum(after, "busy_us") - lane_sum(before, "busy_us");
}

// ---------------------------------------------------------------------

Reference::Reference() {
  pmonge::serve::ServiceOptions o;
  // Admission sizing never changes response bytes; a deep queue lets the
  // reference answer a whole chunk of lines per submission.
  o.queue_capacity = std::size_t{1} << 16;
  svc_ = std::make_unique<pmonge::serve::Service>(o);
}

std::vector<std::string> Reference::answer(const std::vector<std::string>& lines) {
  constexpr std::size_t kChunk = 4096;
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); i += kChunk) {
    const std::vector<std::string> part(
        lines.begin() + static_cast<std::ptrdiff_t>(i),
        lines.begin() + static_cast<std::ptrdiff_t>(std::min(lines.size(), i + kChunk)));
    for (std::string& r : svc_->request_batch(part)) out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------

void info(const std::string& key, const std::string& value) {
  std::cout << "# " << key << ": " << value << "\n";
}

std::string num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void report_latency(const std::string& label, std::vector<double> lat) {
  std::sort(lat.begin(), lat.end());
  std::string line;
  for (const auto& [name, q] : {std::pair{"p50", 0.5}, std::pair{"p90", 0.9},
                                std::pair{"p99", 0.99}, std::pair{"p99.9", 0.999}}) {
    const Quantile v = quantile_sorted(lat, q);
    line += std::string(line.empty() ? "" : "  ") + name + "=" + num(v.value, 1) +
            "us (n=" + std::to_string(v.samples) + ", beyond=" + std::to_string(v.beyond) + ")";
  }
  info(label, line);
}

void report_windows(const PhaseResult& r, int rate_digits) {
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    if (r.window[i] >= by_window.size()) by_window.resize(r.window[i] + 1);
    by_window[r.window[i]].push_back(r.latency_us[i]);
  }
  std::string p50s;
  for (std::vector<double>& w : by_window) p50s += num(median(std::move(w)), 1) + " ";
  info("per-window p50 (us)", p50s + "-> median " + num(r.latency_p50(), 1));
  if (r.window_rate.empty()) return;
  std::string rates;
  for (const double w : r.window_rate) rates += num(w, rate_digits) + " ";
  info("per-window rate (ops/s)", rates + "-> median " + num(median(r.window_rate), rate_digits));
}

void report_tally(const std::string& label, const Tally& t) {
  const double share = t.sent == 0 ? 0 : static_cast<double>(t.not_ok()) / static_cast<double>(t.sent);
  info(label, "sent=" + std::to_string(t.sent) + " ok=" + std::to_string(t.ok) +
                  " refused=" + std::to_string(t.refused) +
                  " failed=" + std::to_string(t.failed) +
                  " mismatched=" + std::to_string(t.mismatched) +
                  " failed_share=" + num(share, 6));
}

void report_host(const Layout& l, std::size_t exec_lanes, const std::string& git) {
  info("host", "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                   " allowed=" + cpu_label(l.all) + " server_cpus=" + cpu_label(l.server) +
                   " generator_cpus=" + cpu_label(l.generator) +
                   " kernel_cpus=" + cpu_label(l.kernel) +
                   " exec_lanes=" + std::to_string(exec_lanes));
  info("build", std::string("type=") + PERFBENCH_BUILD_TYPE + " git=" + git);
}

void report_counters(const Counters& k) {
  std::string line;
  for (const char* path : {"cache/hits", "cache/misses", "cache/evictions", "queue/admitted",
                           "queue/overloaded", "batches/count", "planner/plan_cache_misses",
                           "index/lookups", "exec/batches", "exec/submit_wait_us",
                           "rpc/read_pauses", "rpc/overload_rejected", "alloc/fast_path_hits"}) {
    line += std::string(line.empty() ? "" : " ") + path + "=" + num(k.delta(path), 0);
  }
  info("server counters (window delta)", line + " exec_chunks=" + num(k.exec_chunks_delta(), 0) +
                                             " queue/high_water=" +
                                             num(k.after_value("queue/high_water"), 0));
}

void account(Result& res, const Tally& t) {
  res.attempted += t.sent;
  res.failed += t.not_ok();
  if (t.failed > 0 || t.mismatched > 0) res.correct = false;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"name\":\"" << s.name << "\",\"ts\":" << json_number(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.dur_ns()) / 1e3)
        << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

std::string register_line(const char* kind, std::uint64_t seed,
                          std::int64_t rows, std::int64_t cols) {
  return std::string("{\"op\":\"register_random\",\"kind\":\"") + kind +
         "\",\"rows\":" + std::to_string(rows) + ",\"cols\":" + std::to_string(cols) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

}  // namespace perfbench
