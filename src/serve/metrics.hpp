// Per-endpoint service metrics: request/outcome counters and latency
// histograms, exported by the `stats` endpoint.
//
// All mutation paths are lock-free atomics (support/histogram.hpp); the
// endpoints are a fixed array indexed by Op (serve/protocol.hpp), so
// readers and writers touch it without locks.  Unknown ops land in the
// Op::Other slot, exported as "_other".
//
// Stats are observability, not results: they are the one part of the
// service whose bytes legitimately vary run to run, which is why query
// responses never embed them (see the bit-identical guarantee in
// docs/serving.md).
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "plan/cost_model.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/histogram.hpp"

namespace pmonge::serve {

struct EndpointMetrics {
  support::Counter requests;      // admitted into processing
  support::Counter ok;            // answered with ok:true
  support::Counter errors;        // answered with ok:false (any reason)
  support::Counter overloaded;    // rejected at admission
  support::Counter expired;       // answered deadline_expired
  support::Counter unmeetable;    // rejected deadline_unmeetable at admission
  support::Counter cache_hits;
  support::Counter cache_misses;
  support::Counter retried;       // group retry attempts this op rode
  support::Counter degraded;      // answered via the degraded (breaker) path
  support::LogHistogram latency_us;  // submit -> response, microseconds
};

class ServiceMetrics {
 public:
  EndpointMetrics& endpoint(Op op) {
    return by_op_[static_cast<std::size_t>(op)];
  }

  support::Counter& batches() { return batches_; }
  support::LogHistogram& batch_size() { return batch_size_; }
  support::Counter& charged_time() { return charged_time_; }
  support::Counter& charged_work() { return charged_work_; }

  /// Planner choice counter (one per executed group, by chosen variant).
  support::Counter& plans(plan::Algo algo) {
    return plans_[static_cast<std::size_t>(algo)];
  }

  /// Snapshot as a JSON object (endpoints with zero requests and zero
  /// rejections are omitted to keep `stats` responses readable).
  Json snapshot() const {
    Json::Obj endpoints;
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const EndpointMetrics* m = &by_op_[i];
      if (m->requests.value() == 0 && m->overloaded.value() == 0 &&
          m->unmeetable.value() == 0) {
        continue;
      }
      Json::Obj e;
      e["requests"] = m->requests.value();
      e["ok"] = m->ok.value();
      e["errors"] = m->errors.value();
      e["overloaded"] = m->overloaded.value();
      e["expired"] = m->expired.value();
      e["unmeetable"] = m->unmeetable.value();
      e["cache_hits"] = m->cache_hits.value();
      e["cache_misses"] = m->cache_misses.value();
      e["retried"] = m->retried.value();
      e["degraded"] = m->degraded.value();
      Json::Obj lat;
      lat["count"] = m->latency_us.count();
      lat["sum_us"] = m->latency_us.sum();
      lat["p50_us_bound"] = m->latency_us.quantile_bound(0.50);
      lat["p99_us_bound"] = m->latency_us.quantile_bound(0.99);
      // Sparse bucket dump [[bit_width, count], ...] so the Prometheus
      // exposition (obs/prometheus.cpp) can render a real histogram.
      Json::Arr buckets;
      const auto counts = m->latency_us.buckets();
      for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0) continue;
        Json::Arr pair;
        pair.emplace_back(static_cast<std::int64_t>(b));
        pair.emplace_back(counts[b]);
        buckets.emplace_back(std::move(pair));
      }
      lat["buckets"] = Json(std::move(buckets));
      e["latency"] = Json(std::move(lat));
      endpoints[std::string(kOpTable[i].name)] = Json(std::move(e));
    }
    Json::Obj out;
    out["endpoints"] = Json(std::move(endpoints));
    Json::Obj batch;
    batch["count"] = batches_.value();
    batch["p50_size_bound"] = batch_size_.quantile_bound(0.50);
    batch["max_size_bound"] = batch_size_.quantile_bound(1.0);
    out["batches"] = Json(std::move(batch));
    Json::Obj charged;
    charged["time"] = charged_time_.value();
    charged["work"] = charged_work_.value();
    out["charged"] = Json(std::move(charged));
    Json::Obj plans;
    for (std::size_t a = 0; a < kAlgos; ++a) {
      plans[plan::algo_name(static_cast<plan::Algo>(a))] = plans_[a].value();
    }
    out["plans"] = Json(std::move(plans));
    return Json(std::move(out));
  }

 private:
  static constexpr std::size_t kAlgos =
      static_cast<std::size_t>(plan::Algo::Parallel) + 1;
  std::array<EndpointMetrics, kOpCount> by_op_;
  support::Counter batches_;
  support::LogHistogram batch_size_;
  support::Counter charged_time_;  // summed simulated-PRAM steps
  support::Counter charged_work_;  // summed simulated-PRAM work
  std::array<support::Counter, kAlgos> plans_;  // indexed by plan::Algo
};

}  // namespace pmonge::serve
