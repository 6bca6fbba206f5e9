#include "obs/prometheus.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace pmonge::obs {

namespace {

using serve::Json;

/// One label pair; values get exposition-format escaping.
struct Label {
  const char* key;
  std::string value;
};

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(const Json& v) {
  switch (v.type()) {
    case Json::Type::Bool:
      return v.as_bool() ? "1" : "0";
    case Json::Type::Int: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRId64, v.as_int());
      return buf;
    }
    case Json::Type::Double: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
      return buf;
    }
    default:
      return "0";
  }
}

class Writer {
 public:
  /// Start a metric family: HELP + TYPE emitted exactly once.
  void family(const char* name, const char* help, const char* type) {
    name_ = name;
    out_ += "# HELP ";
    out_ += name;
    out_ += ' ';
    out_ += help;
    out_ += "\n# TYPE ";
    out_ += name;
    out_ += ' ';
    out_ += type;
    out_ += '\n';
  }

  void sample(const std::vector<Label>& labels, const std::string& value,
              const char* suffix = "") {
    out_ += name_;
    out_ += suffix;
    if (!labels.empty()) {
      out_ += '{';
      bool first = true;
      for (const auto& l : labels) {
        if (!first) out_ += ',';
        first = false;
        out_ += l.key;
        out_ += "=\"";
        out_ += escape_label(l.value);
        out_ += '"';
      }
      out_ += '}';
    }
    out_ += ' ';
    out_ += value;
    out_ += '\n';
  }

  void sample(const std::vector<Label>& labels, const Json& value,
              const char* suffix = "") {
    sample(labels, number(value), suffix);
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
  const char* name_ = "";
};

/// Emit one per-endpoint counter family from stats["endpoints"].
void endpoint_counters(Writer& w, const Json* endpoints, const char* field,
                       const char* name, const char* help) {
  if (endpoints == nullptr) return;
  w.family(name, help, "counter");
  for (const auto& [op, m] : endpoints->obj()) {
    if (const Json* v = m.find(field)) w.sample({{"op", op}}, *v);
  }
}

/// Emit per-endpoint latency histograms.  The JSON carries the sparse
/// LogHistogram buckets as [[bit_width, count], ...]; Prometheus wants
/// cumulative counts at each bucket's upper edge.
void endpoint_latency(Writer& w, const Json* endpoints) {
  if (endpoints == nullptr) return;
  w.family("pmonge_request_latency_us", "Submit-to-response latency",
           "histogram");
  for (const auto& [op, m] : endpoints->obj()) {
    const Json* lat = m.find("latency");
    if (lat == nullptr) continue;
    std::uint64_t cum = 0;
    if (const Json* buckets = lat->find("buckets")) {
      for (const Json& pair : buckets->arr()) {
        const auto b = static_cast<std::uint64_t>(pair.arr().at(0).as_int());
        const auto n = static_cast<std::uint64_t>(pair.arr().at(1).as_int());
        cum += n;
        if (b >= 64) continue;  // top bucket's edge is +Inf, emitted below
        const std::uint64_t edge = b == 0 ? 0 : (1ull << b) - 1;
        w.sample({{"op", op}, {"le", std::to_string(edge)}},
                 std::to_string(cum), "_bucket");
      }
    }
    const Json* count = lat->find("count");
    w.sample({{"op", op}, {"le", "+Inf"}},
             count != nullptr ? number(*count) : std::to_string(cum),
             "_bucket");
    if (const Json* sum = lat->find("sum_us")) {
      w.sample({{"op", op}}, *sum, "_sum");
    }
    if (count != nullptr) w.sample({{"op", op}}, *count, "_count");
  }
}

/// Emit a flat section's scalar fields, each as its own family.
struct Field {
  const char* json_key;
  const char* metric;
  const char* help;
  const char* type;
};

void section(Writer& w, const Json* sec, const std::vector<Field>& fields) {
  if (sec == nullptr) return;
  for (const Field& f : fields) {
    if (const Json* v = sec->find(f.json_key)) {
      w.family(f.metric, f.help, f.type);
      w.sample({}, *v);
    }
  }
}

}  // namespace

std::string prometheus_text(const Json& stats) {
  Writer w;
  const Json* endpoints = stats.find("endpoints");

  endpoint_counters(w, endpoints, "requests", "pmonge_requests_total",
                    "Requests admitted into processing");
  endpoint_counters(w, endpoints, "ok", "pmonge_requests_ok_total",
                    "Requests answered ok");
  endpoint_counters(w, endpoints, "errors", "pmonge_requests_errors_total",
                    "Requests answered with an error");
  endpoint_counters(w, endpoints, "overloaded",
                    "pmonge_requests_overloaded_total",
                    "Requests rejected at admission (queue full)");
  endpoint_counters(w, endpoints, "expired", "pmonge_requests_expired_total",
                    "Requests whose deadline expired in queue");
  endpoint_counters(w, endpoints, "unmeetable",
                    "pmonge_requests_unmeetable_total",
                    "Requests rejected as deadline-unmeetable");
  endpoint_counters(w, endpoints, "cache_hits",
                    "pmonge_request_cache_hits_total",
                    "Requests answered from the result cache");
  endpoint_counters(w, endpoints, "cache_misses",
                    "pmonge_request_cache_misses_total",
                    "Requests that missed the result cache");
  endpoint_counters(w, endpoints, "retried", "pmonge_requests_retried_total",
                    "Group retry attempts requests rode through");
  endpoint_counters(w, endpoints, "degraded",
                    "pmonge_requests_degraded_total",
                    "Requests answered via the degraded (breaker) path");
  endpoint_latency(w, endpoints);

  section(w, stats.find("batches"),
          {{"count", "pmonge_batches_total", "Batches popped by the worker",
            "counter"},
           {"p50_size_bound", "pmonge_batch_size_p50_bound",
            "Median batch size (log-bucket upper bound)", "gauge"},
           {"max_size_bound", "pmonge_batch_size_max_bound",
            "Max batch size (log-bucket upper bound)", "gauge"}});

  section(w, stats.find("charged"),
          {{"time", "pmonge_charged_time_total",
            "Summed simulated-PRAM time steps", "counter"},
           {"work", "pmonge_charged_work_total", "Summed simulated-PRAM work",
            "counter"}});

  if (const Json* plans = stats.find("plans")) {
    w.family("pmonge_plans_total", "Executed groups by chosen algorithm",
             "counter");
    for (const auto& [algo, v] : plans->obj()) {
      w.sample({{"algo", algo}}, v);
    }
  }

  section(w, stats.find("cache"),
          {{"enabled", "pmonge_cache_enabled", "Result cache enabled",
            "gauge"},
           {"hits", "pmonge_cache_hits_total", "Result cache hits", "counter"},
           {"misses", "pmonge_cache_misses_total", "Result cache misses",
            "counter"},
           {"insertions", "pmonge_cache_insertions_total",
            "Result cache insertions", "counter"},
           {"evictions", "pmonge_cache_evictions_total",
            "Result cache evictions", "counter"},
           {"invalidations", "pmonge_cache_invalidations_total",
            "Result cache invalidations", "counter"},
           {"poisoned", "pmonge_cache_poisoned_total",
            "Poisoned cache entries detected and dropped", "counter"},
           {"entries", "pmonge_cache_entries", "Result cache live entries",
            "gauge"}});

  section(w, stats.find("resilience"),
          {{"retries", "pmonge_group_retries_total",
            "Group dispatch retries after injected faults", "counter"},
           {"batch_retries", "pmonge_batch_retries_total",
            "Batch dispatch resubmissions after injected faults", "counter"},
           {"degraded_groups", "pmonge_degraded_groups_total",
            "Groups executed on the degraded (sequential) path", "counter"},
           {"breaker_opens", "pmonge_breaker_opens_total",
            "Circuit breaker open transitions", "counter"},
           {"fault_errors", "pmonge_fault_errors_total",
            "Groups answered fault_injected after exhausting retries",
            "counter"},
           {"breaker_open", "pmonge_breaker_open",
            "Circuit breaker currently open", "gauge"}});

  if (const Json* fault = stats.find("fault")) {
    section(w, fault,
            {{"armed", "pmonge_fault_armed", "Fault injection armed",
              "gauge"},
             {"rate_bp", "pmonge_fault_rate_bp",
              "Fault fire rate in basis points", "gauge"},
             {"total", "pmonge_fault_injected_sum",
              "Faults injected across all sites", "counter"}});
    if (const Json* injected = fault->find("injected")) {
      w.family("pmonge_fault_injected_total", "Faults injected by site",
               "counter");
      for (const auto& [site, v] : injected->obj()) {
        w.sample({{"site", site}}, v);
      }
    }
  }

  if (const Json* planner = stats.find("planner")) {
    section(w, planner,
            {{"enabled", "pmonge_planner_enabled", "Adaptive planner enabled",
              "gauge"},
             {"threads", "pmonge_planner_threads",
              "Thread count the planner costs against", "gauge"}});
    if (const Json* profile = planner->find("profile")) {
      w.family("pmonge_planner_info", "Planner cost-profile identity",
               "gauge");
      w.sample({{"profile", profile->as_string()}}, std::string("1"));
    }
  }

  section(w, stats.find("queue"),
          {{"capacity", "pmonge_queue_capacity", "Admission queue capacity",
            "gauge"},
           {"depth", "pmonge_queue_depth", "Admission queue current depth",
            "gauge"},
           {"high_water", "pmonge_queue_high_water",
            "Admission queue high-water depth", "gauge"},
           {"admitted", "pmonge_queue_admitted_total",
            "Requests admitted to the queue", "counter"},
           {"overloaded", "pmonge_queue_overloaded_total",
            "Requests rejected by the queue", "counter"},
           {"inline", "pmonge_queue_inline_total",
            "Queries answered on the submitting thread, never queued",
            "counter"}});

  section(w, stats.find("registry"),
          {{"arrays", "pmonge_registry_arrays", "Registered arrays",
            "gauge"}});

  if (const Json* ex = stats.find("exec")) {
    section(w, ex,
            {{"threads", "pmonge_exec_threads", "Exec pool worker threads",
              "gauge"},
             {"batches", "pmonge_exec_batches_total",
              "Chunk batches submitted to the pool", "counter"},
             {"submit_waits", "pmonge_exec_submit_waits_total",
              "Submitter stalls waiting on pool workers", "counter"},
             {"submit_wait_us", "pmonge_exec_submit_wait_us_total",
              "Microseconds submitters spent stalled", "counter"}});
    const Json* workers = ex->find("workers");
    const Json* external = ex->find("external");
    if (workers != nullptr || external != nullptr) {
      w.family("pmonge_exec_worker_busy_us_total",
               "Microseconds each lane spent executing chunks", "counter");
      if (workers != nullptr) {
        std::size_t i = 0;
        for (const Json& wk : workers->arr()) {
          if (const Json* v = wk.find("busy_us")) {
            w.sample({{"worker", std::to_string(i)}}, *v);
          }
          ++i;
        }
      }
      if (external != nullptr) {
        if (const Json* v = external->find("busy_us")) {
          w.sample({{"worker", "external"}}, *v);
        }
      }
      w.family("pmonge_exec_worker_chunks_total",
               "Chunks each lane executed", "counter");
      if (workers != nullptr) {
        std::size_t i = 0;
        for (const Json& wk : workers->arr()) {
          if (const Json* v = wk.find("chunks")) {
            w.sample({{"worker", std::to_string(i)}}, *v);
          }
          ++i;
        }
      }
      if (external != nullptr) {
        if (const Json* v = external->find("chunks")) {
          w.sample({{"worker", "external"}}, *v);
        }
      }
    }
  }

  section(w, stats.find("index"),
          {{"arrays", "pmonge_index_arrays", "Arrays with a live query index",
            "gauge"},
           {"builds", "pmonge_index_builds_total", "Index builds completed",
            "counter"},
           {"drops", "pmonge_index_drops_total",
            "Indexes dropped (explicitly or via unregister)", "counter"},
           {"lookups", "pmonge_index_lookups_total",
            "Submatrix queries answered through an index", "counter"},
           {"corrupt_detected", "pmonge_index_corrupt_detected_total",
            "Index nodes failing checksum verification", "counter"},
           {"node_rebuilds", "pmonge_index_node_rebuilds_total",
            "Index nodes rebuilt from the source array", "counter"},
           {"nodes", "pmonge_index_nodes", "Live index tree nodes", "gauge"},
           {"memory_bytes", "pmonge_index_memory_bytes",
            "Bytes held by live index structures", "gauge"}});

  section(w, stats.find("alloc"),
          {{"arena_reserved_bytes", "pmonge_alloc_arena_reserved_bytes",
            "Bytes reserved by live bump arenas", "gauge"},
           {"arena_high_water_bytes", "pmonge_alloc_arena_high_water_bytes",
            "Peak bytes live in any arena scope", "gauge"},
           {"pool_hits", "pmonge_alloc_pool_hits_total",
            "Pooled-buffer reuses (no heap allocation)", "counter"},
           {"pool_misses", "pmonge_alloc_pool_misses_total",
            "Pooled-buffer acquisitions that had to allocate", "counter"},
           {"fast_path_hits", "pmonge_alloc_fast_path_hits_total",
            "Requests served by the zero-allocation cached-hit path",
            "counter"}});

  section(w, stats.find("trace"),
          {{"enabled", "pmonge_trace_enabled", "Span tracing enabled",
            "gauge"},
           {"dropped", "pmonge_trace_dropped_spans_total",
            "Spans dropped by full or contended rings", "counter"}});

  if (const Json* uptime = stats.find("uptime_ms")) {
    w.family("pmonge_uptime_ms", "Milliseconds since service start", "gauge");
    w.sample({}, *uptime);
  }

  if (const Json* build = stats.find("build")) {
    const Json* git = build->find("git");
    const Json* compiler = build->find("compiler");
    w.family("pmonge_build_info", "Build provenance of the running binary",
             "gauge");
    w.sample({{"git", git != nullptr ? git->as_string() : "unknown"},
              {"compiler",
               compiler != nullptr ? compiler->as_string() : "unknown"}},
             std::string("1"));
  }

  // Present only when the TCP front-end is live (Service::set_extra_stats).
  section(w, stats.find("rpc"),
          {{"accepted", "pmonge_rpc_connections_accepted_total",
            "TCP connections accepted", "counter"},
           {"rejected", "pmonge_rpc_connections_rejected_total",
            "Connections rejected over --max-conns", "counter"},
           {"closed", "pmonge_rpc_connections_closed_total",
            "Connections closed in an orderly way", "counter"},
           {"dropped", "pmonge_rpc_connections_dropped_total",
            "Connections dropped by the rpc.conn_drop fault site", "counter"},
           {"overflow_dropped", "pmonge_rpc_connections_overflow_total",
            "Connections dropped at the hard outbound-buffer valve",
            "counter"},
           {"idle_closed", "pmonge_rpc_connections_idle_closed_total",
            "Connections closed by the idle timeout", "counter"},
           {"active", "pmonge_rpc_connections_active",
            "Currently open connections", "gauge"},
           {"conn_high_water", "pmonge_rpc_connections_high_water",
            "Peak concurrent connections", "gauge"},
           {"lines_in", "pmonge_rpc_lines_in_total",
            "Request lines framed off sockets", "counter"},
           {"responses_out", "pmonge_rpc_responses_out_total",
            "Response lines fully written to sockets", "counter"},
           {"oversized_lines", "pmonge_rpc_oversized_lines_total",
            "Lines rejected as oversized", "counter"},
           {"overload_rejected", "pmonge_rpc_overload_rejected_total",
            "Framed lines rejected `overloaded` past the inflight valve",
            "counter"},
           {"bytes_in", "pmonge_rpc_bytes_in_total", "Bytes read from sockets",
            "counter"},
           {"bytes_out", "pmonge_rpc_bytes_out_total",
            "Bytes written to sockets", "counter"},
           {"read_pauses", "pmonge_rpc_read_pauses_total",
            "Backpressure engagements (reads paused)", "counter"},
           {"outbound_high_water_bytes", "pmonge_rpc_outbound_high_water_bytes",
            "Peak per-connection outbound buffer bytes", "gauge"}});

  return w.take();
}

}  // namespace pmonge::obs
