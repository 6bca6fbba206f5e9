#include "serve/service.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "monge/generators.hpp"
#include "monge/validate.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "serve/codec.hpp"
#include "support/arena.hpp"
#include "support/build_info.hpp"
#include "support/fmt.hpp"
#include "support/rng.hpp"

namespace pmonge::serve {

namespace {

std::uint64_t us_between(ServeClock::time_point a, ServeClock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::microseconds>(b - a);
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(opts),
      cache_(opts.cache_capacity, opts.cache_shards),
      planner_(opts.profile, opts.planner, exec::num_threads()),
      batcher_(registry_, cache_, metrics_, planner_, indexes_, opts.model,
               opts.coalesce, opts.resilience),
      queue_(std::make_unique<AdmissionQueue<Pending>>(opts.queue_capacity)),
      start_(std::chrono::steady_clock::now()) {
  worker_ = std::thread([this] { worker_loop(); });
}

Service::~Service() {
  queue_->stop();
  worker_.join();
}

void Service::pause() { queue_->pause(true); }
void Service::resume() { queue_->pause(false); }

bool Service::try_serve_fast(std::string_view line, std::string& out) {
  // Preconditions for skipping the slow path entirely: the cache must be
  // on, no implicit deadline can apply (deadline admission precedes the
  // cache), and neither tracing nor fault injection may be armed (both
  // hook the slow path's stages).
  if (!opts_.fast_path || !cache_.enabled() || opts_.default_deadline_ms >= 0 ||
      obs::enabled() || fault::armed()) {
    return false;
  }
  RequestCodec& codec = thread_codec();
  FastQuery q;
  if (!codec.canonicalize_query(line, q)) return false;
  // explain reports live plan/cost observations and is never cached.
  if (q.op == Op::Explain || !op_spec(q.op).query) return false;

  const auto t0 = ServeClock::now();
  std::string& buf = codec.response_buffer();
  const std::size_t warm_capacity = buf.capacity();
  buf.clear();
  if (q.id != kNoId) {
    buf += "{\"id\":";
    support::append_int(buf, q.id);
    buf += ",\"ok\":true,\"result\":";
  } else {
    buf += "{\"ok\":true,\"result\":";
  }
  if (!cache_.get_hit(q.signature, q.hash, buf)) return false;
  buf.push_back('}');

  // Same per-endpoint accounting the queue/worker path would record for
  // a cached hit: admitted, hit, ok, and submit-to-answer latency.
  EndpointMetrics& em = metrics_.endpoint(q.op);
  em.requests.add();
  em.cache_hits.add();
  em.ok.add();
  em.latency_us.record(us_between(t0, ServeClock::now()));
  support::alloc_note_fast_path_hit();
  if (buf.capacity() == warm_capacity && warm_capacity != 0) {
    support::alloc_note_pool_hit();
  } else {
    support::alloc_note_pool_miss();
  }
  out += buf;
  return true;
}

void Service::submit_cb(std::string line, ResponseCallback done,
                        InlineAllowance& allowance) {
  obs::Span span("serve.admit");

  Request req;
  try {
    parse_request_into(line, req);
  } catch (const std::exception& e) {
    metrics_.endpoint(Op::Other).errors.add();
    // Envelope-shape errors arrive pre-categorized as bad_request; only
    // raw lexer failures get the parse_error category here.  An error
    // after the id parsed echoes it.
    std::string msg = e.what();
    if (!msg.starts_with("bad_request: ")) msg = "parse_error: " + msg;
    done(make_error_response(req.id, std::move(msg)));
    return;
  }

  span.set_detail(op_spec(req.op).name);
  span.set_trace(req.trace_id);

  if (!op_spec(req.op).query) {
    EndpointMetrics& em = metrics_.endpoint(req.op);
    em.requests.add();
    const auto t0 = ServeClock::now();
    std::string resp = handle_control(req);
    em.latency_us.record(us_between(t0, ServeClock::now()));
    done(std::move(resp));
    return;
  }

  // Query ops: mint a trace id when tracing is on and the client did not
  // supply one.  The id rides the Request (envelope field), never the
  // response, so answer bytes stay identical tracing on or off.
  if (req.trace_id == 0 && obs::enabled()) {
    req.trace_id = obs::new_trace_id();
  }
  span.set_trace(req.trace_id);

  std::int64_t deadline_ms = req.deadline_ms;
  if (deadline_ms < 0) deadline_ms = opts_.default_deadline_ms;
  const auto deadline =
      deadline_ms < 0
          ? kNoDeadline
          : ServeClock::now() + std::chrono::milliseconds(deadline_ms);

  EndpointMetrics& em = metrics_.endpoint(req.op);

  // Deadline-aware admission: if the cost model already knows the
  // deadline cannot be met, reject before the request burns queue space
  // or engine time.  explain is exempt (it exists to report the plan).
  if (planner_.enabled() && deadline_ms >= 0 && req.op != Op::Explain) {
    const double predicted_us =
        planner_.predicted_us(query_shape(req, registry_));
    if (predicted_us > static_cast<double>(deadline_ms) * 1000.0) {
      em.unmeetable.add();
      em.errors.add();
      done(make_error_response(
          req.id,
          "deadline_unmeetable: predicted " +
              std::to_string(
                  static_cast<std::int64_t>(std::llround(predicted_us))) +
              "us exceeds deadline " + std::to_string(deadline_ms) + "ms"));
      return;
    }
  }
  if (runs_inline(req, deadline_ms, allowance)) {
    answer_inline(req, done);
    return;
  }
  // Admission jitter site: a seeded pre-enqueue sleep that shuffles
  // arrival order.  Response bytes never depend on batch composition, so
  // this can only move latency, never answers.
  if (fault::armed() && fault::should_fire(fault::Site::ServeAdmitJitter)) {
    fault::fire_delay(fault::Site::ServeAdmitJitter);
  }
  const std::int64_t id = req.id;
  Pending p{std::move(req), done};  // `done` stays copied for the reject path
  if (queue_->try_push(std::move(p), deadline) == AdmitResult::Overloaded) {
    // try_push consumed p (by-value argument) even on rejection, taking
    // its callback copy with it; answer through the one we kept.
    em.overloaded.add();
    done(make_error_response(id, "overloaded"));
    return;
  }
  em.requests.add();
}

bool Service::runs_inline(const Request& req, std::int64_t deadline_ms,
                          InlineAllowance& allowance) {
  // The queued path stays where it adds something: a deadline can expire
  // in the queue, explain times a worker run, tracing and armed faults
  // hook the worker's stages, and a non-idle queue holds earlier lines
  // (or a paused worker) that this one must not overtake.  An empty
  // grant (a busy front-end) is checked first, so a loaded front-end
  // neither locks the queue nor prices the query.
  if (allowance.left_us <= 0 || deadline_ms >= 0 || req.op == Op::Explain ||
      obs::enabled() || fault::armed() || !queue_->idle()) {
    return false;
  }
  return allowance.take(planner_.predicted_us(query_shape(req, registry_)));
}

void Service::answer_inline(const Request& req, const ResponseCallback& done) {
  // A batch of one on the calling thread: the same batcher, cache pass
  // and response bytes as a worker batch, minus the two thread hand-offs.
  // Not a worker batch, so `batches` and `batch_size` do not count it.
  const auto t0 = ServeClock::now();
  metrics_.endpoint(req.op).requests.add();
  inline_answered_.add();
  const std::vector<BatchOutcome> out = run_batch({&req, 1}, {});
  std::string resp;
  respond(req, out[0], t0, resp);
  done(std::move(resp));
}

std::vector<BatchOutcome> Service::run_batch(
    std::span<const Request> reqs,
    std::span<const ServeClock::time_point> deadlines) {
  try {
    return batcher_.run(reqs, deadlines);
  } catch (const std::exception& e) {
    // The batcher's contract is to never throw; if something slips
    // through anyway, answer the batch instead of killing the thread that
    // ran it (for the one worker, that would hang every later request).
    std::vector<BatchOutcome> out(reqs.size());
    for (auto& o : out) o.error = std::string("internal: ") + e.what();
    return out;
  }
}

ServeClock::time_point Service::respond(const Request& r,
                                        const BatchOutcome& o,
                                        ServeClock::time_point since,
                                        std::string& resp) {
  EndpointMetrics& em = metrics_.endpoint(r.op);
  if (o.ok) {
    em.ok.add();
    append_ok_response_raw(r.id, o.result, resp);
  } else {
    em.errors.add();
    append_error_response(r.id, o.error, resp);
  }
  const auto done = ServeClock::now();
  em.latency_us.record(us_between(since, done));
  return done;
}

std::future<std::string> Service::submit(std::string line) {
  // Cached-hit fast path: answered inline on the submitting thread,
  // exactly like control ops and admission rejections already are.
  std::string hit;
  if (try_serve_fast(line, hit)) {
    std::promise<std::string> answered;
    answered.set_value(std::move(hit));
    return answered.get_future();
  }
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> fut = promise->get_future();
  InlineAllowance allowance;
  submit_cb(
      std::move(line),
      [promise](std::string resp) { promise->set_value(std::move(resp)); },
      allowance);
  return fut;
}

std::string Service::request(const std::string& line) {
  return submit(line).get();
}

void Service::set_extra_stats(const std::string& key,
                              std::function<Json()> fn) {
  std::lock_guard<std::mutex> lock(extra_stats_mu_);
  for (auto& [k, f] : extra_stats_) {
    if (k == key) {
      f = std::move(fn);
      return;
    }
  }
  extra_stats_.emplace_back(key, std::move(fn));
}

std::vector<std::string> Service::request_batch(
    const std::vector<std::string>& lines) {
  std::vector<std::future<std::string>> futs;
  futs.reserve(lines.size());
  for (const auto& l : lines) futs.push_back(submit(l));
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

namespace {

/// One "serve.request" span covering a request's whole queue-to-answer
/// interval, reconstructed from the admission timestamps (the RAII Span
/// cannot straddle threads).  `done` is the same timestamp the latency
/// histogram records, so the traced path adds no clock read of its own;
/// the records accumulate per worker batch and land via one emit_all()
/// -- per-request emission is the one tracing cost that scales with
/// throughput, and the 5% bench_serve overhead gate watches it.
obs::SpanRecord request_span(const Request& r, ServeClock::time_point enqueued,
                             ServeClock::time_point done) {
  obs::SpanRecord rec;
  rec.name = "serve.request";
  rec.trace_id = r.trace_id;
  rec.start_us = obs::to_trace_us(enqueued);
  rec.dur_us = us_between(enqueued, done);
  rec.set_detail(op_spec(r.op).name);
  return rec;
}

}  // namespace

void Service::worker_loop() {
  obs::set_lane_name("serve-worker");
  while (true) {
    auto batch = queue_->pop_batch(opts_.batch_max);
    if (batch.empty()) return;  // stopped and drained

    obs::Span span("serve.batch");
    span.set_arg("requests", batch.size());
    std::vector<obs::SpanRecord> req_spans;
    const bool traced = obs::enabled();
    if (traced) req_spans.reserve(batch.size());

    metrics_.batches().add();
    metrics_.batch_size().record(batch.size());

    // Answer expired deadlines without running them; everything else
    // forms the live batch the batcher coalesces.
    std::vector<std::size_t> live_idx;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].expired) {
        const Request& r = batch[i].item.req;
        EndpointMetrics& em = metrics_.endpoint(r.op);
        em.expired.add();
        em.errors.add();
        const auto done = ServeClock::now();
        em.latency_us.record(us_between(batch[i].enqueued, done));
        if (traced) obs::emit(request_span(r, batch[i].enqueued, done));
        batch[i].item.done(make_error_response(r.id, "deadline_expired"));
      } else {
        live_idx.push_back(i);
      }
    }
    if (live_idx.empty()) continue;

    // The requests move into the batch; the answer loop reads them there.
    std::vector<Request> reqs;
    std::vector<ServeClock::time_point> deadlines;
    reqs.reserve(live_idx.size());
    deadlines.reserve(live_idx.size());
    for (const std::size_t i : live_idx) {
      reqs.push_back(std::move(batch[i].item.req));
      deadlines.push_back(batch[i].deadline);
    }
    const std::vector<BatchOutcome> outcomes = run_batch(reqs, deadlines);

    std::vector<std::string> responses;
    responses.reserve(outcomes.size());
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      const auto enqueued = batch[live_idx[t]].enqueued;
      const auto done = respond(reqs[t], outcomes[t], enqueued,
                                responses.emplace_back());
      if (traced) req_spans.push_back(request_span(reqs[t], enqueued, done));
    }
    // Spans land before callbacks resolve: a client that saw its answer
    // can immediately `trace` and find its serve.request span.
    obs::emit_all(req_spans);
    // Slow-client site: one seeded stall between computing a batch's
    // answers and resolving its callbacks -- the response-writing leg.
    if (fault::armed() &&
        fault::should_fire(fault::Site::ServeSlowResponse)) {
      fault::fire_delay(fault::Site::ServeSlowResponse);
    }
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      batch[live_idx[t]].item.done(std::move(responses[t]));
    }
  }
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

namespace {

std::size_t size_field(const Json& body, const char* key) {
  const std::int64_t v = body.at(key).as_int();
  if (v <= 0) throw JsonError(std::string("bad_request: ") + key +
                              " must be positive");
  return static_cast<std::size_t>(v);
}

monge::DenseArray<std::int64_t> dense_from_body(const Json& body,
                                                std::size_t rows,
                                                std::size_t cols) {
  const auto& data = body.at("data").arr();
  if (data.size() != rows * cols) {
    throw JsonError("bad_request: data length != rows * cols");
  }
  monge::DenseArray<std::int64_t> a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a.at(i, j) = data[i * cols + j].as_int();
    }
  }
  return a;
}

}  // namespace

std::string Service::handle_control(const Request& req) {
  try {
    switch (req.op) {
      case Op::Ping: {
        Json::Obj o;
        o["pong"] = true;
        return make_ok_response(req.id, Json(std::move(o)));
      }
      case Op::Stats: {
        if (const Json* fmt = req.body.find("format")) {
          const std::string& f = fmt->as_string();
          if (f == "prometheus") {
            // Text exposition rides inside the JSON envelope; a scraper
            // peels result.text.  The snapshot is the same either way.
            Json::Obj o;
            o["format"] = "prometheus";
            o["text"] = obs::prometheus_text(stats_json());
            return make_ok_response(req.id, Json(std::move(o)));
          }
          if (f != "json") {
            return make_error_response(
                req.id, "bad_request: unknown stats format \"" + f + "\"");
          }
        }
        return make_ok_response(req.id, stats_json());
      }
      case Op::Trace: {
        // Drain every thread's span ring into one Chrome trace-event
        // document (loadable in Perfetto).  Draining is destructive by
        // design: each span is reported exactly once.
        return make_ok_response(req.id, obs::chrome_trace_json(obs::collect()));
      }
      case Op::Unregister: {
        const std::int64_t id = req.body.at("array").as_int();
        const bool removed =
            id >= 0 && registry_.remove(static_cast<std::uint64_t>(id));
        // Cached results that read this array must die with it: a later
        // query on the removed id has to answer unknown_array, never a
        // stale ok resurrected from the LRU.
        std::size_t dropped = 0;
        if (removed) {
          dropped = cache_.invalidate_tag(static_cast<std::uint64_t>(id));
          // An index must never survive its array.  Silent on purpose:
          // the unregister response bytes predate the index subsystem and
          // are pinned by golden transcripts.
          indexes_.drop(static_cast<std::uint64_t>(id));
        }
        Json::Obj o;
        o["removed"] = removed;
        o["cache_invalidated"] = static_cast<std::int64_t>(dropped);
        return make_ok_response(req.id, Json(std::move(o)));
      }
      case Op::IndexBuild: {
        const std::int64_t id = req.body.at("array").as_int();
        auto entry =
            id < 0 ? nullptr : registry_.get(static_cast<std::uint64_t>(id));
        if (entry == nullptr) {
          return make_error_response(req.id,
                                     "unknown_array: " + std::to_string(id));
        }
        const auto info =
            indexes_.build(static_cast<std::uint64_t>(id), std::move(entry));
        // Deterministic response: nodes/leaf_rows/memory_bytes are a pure
        // function of the array (timings live in index_stats).
        Json::Obj o;
        o["array"] = id;
        o["nodes"] = info.nodes;
        o["leaf_rows"] = info.leaf_rows;
        o["memory_bytes"] = info.memory_bytes;
        return make_ok_response(req.id, Json(std::move(o)));
      }
      case Op::IndexDrop: {
        const std::int64_t id = req.body.at("array").as_int();
        if (id < 0 ||
            registry_.get(static_cast<std::uint64_t>(id)) == nullptr) {
          return make_error_response(req.id,
                                     "unknown_array: " + std::to_string(id));
        }
        Json::Obj o;
        o["array"] = id;
        o["dropped"] = indexes_.drop(static_cast<std::uint64_t>(id));
        return make_ok_response(req.id, Json(std::move(o)));
      }
      case Op::IndexStats: {
        if (const Json* a = req.body.find("array")) {
          const std::int64_t id = a->as_int();
          auto idx =
              id < 0 ? nullptr : indexes_.get(static_cast<std::uint64_t>(id));
          if (idx == nullptr) {
            return make_error_response(req.id,
                                       "not_indexed: " + std::to_string(id));
          }
          Json::Obj o;
          o["array"] = id;
          o["nodes"] = idx->nodes();
          o["leaf_rows"] = idx->leaf_rows();
          o["memory_bytes"] = idx->memory_bytes();
          o["build_us"] = idx->build_us();
          o["lookups"] = idx->lookups();
          o["corrupt_detected"] = idx->corrupt_detected();
          o["node_rebuilds"] = idx->node_rebuilds();
          return make_ok_response(req.id, Json(std::move(o)));
        }
        return make_ok_response(req.id, indexes_.stats_json());
      }
      case Op::RegisterDense:
      case Op::RegisterStaircase: {
        const std::size_t rows = size_field(req.body, "rows");
        const std::size_t cols = size_field(req.body, "cols");
        if (rows * cols > opts_.max_register_cells) {
          return make_error_response(req.id, "bad_request: array too large");
        }
        ArrayEntry entry;
        entry.data = dense_from_body(req.body, rows, cols);
        if (req.op == Op::RegisterStaircase) {
          entry.kind = ArrayEntry::Kind::Staircase;
          const auto& fr = req.body.at("frontier").arr();
          if (fr.size() != rows) {
            throw JsonError("bad_request: frontier length != rows");
          }
          for (std::size_t i = 0; i < rows; ++i) {
            const std::int64_t f = fr[i].as_int();
            if (f < 0 || static_cast<std::size_t>(f) > cols) {
              throw JsonError("bad_request: frontier entry out of range");
            }
            entry.frontier.push_back(static_cast<std::size_t>(f));
            if (i > 0 && entry.frontier[i] > entry.frontier[i - 1]) {
              throw JsonError("bad_request: frontier must be non-increasing");
            }
          }
        } else {
          const std::string kind =
              req.body.find("kind") ? req.body.at("kind").as_string() : "monge";
          if (kind == "monge") {
            entry.kind = ArrayEntry::Kind::Monge;
          } else if (kind == "inverse_monge") {
            entry.kind = ArrayEntry::Kind::InverseMonge;
          } else {
            throw JsonError("bad_request: unknown kind \"" + kind + "\"");
          }
        }
        const Json* validate = req.body.find("validate");
        if (validate != nullptr && validate->as_bool()) {
          bool good = true;
          switch (entry.kind) {
            case ArrayEntry::Kind::Monge:
              good = monge::is_monge(entry.data);
              break;
            case ArrayEntry::Kind::InverseMonge:
              good = monge::is_inverse_monge(entry.data);
              break;
            case ArrayEntry::Kind::Staircase: {
              monge::StaircaseArray<monge::DenseArray<std::int64_t>> s(
                  entry.data, entry.frontier);
              good = monge::is_staircase_monge(s);
              break;
            }
          }
          if (!good) {
            return make_error_response(
                req.id, std::string("not_") + entry.kind_name());
          }
        }
        Json::Obj o;
        o["array"] = registry_.add(std::move(entry));
        return make_ok_response(req.id, Json(std::move(o)));
      }
      case Op::RegisterRandom: {
        const std::size_t rows = size_field(req.body, "rows");
        const std::size_t cols = size_field(req.body, "cols");
        if (rows * cols > opts_.max_register_cells) {
          return make_error_response(req.id, "bad_request: array too large");
        }
        const auto seed = static_cast<std::uint64_t>(
            req.body.find("seed") ? req.body.at("seed").as_int() : 0);
        const std::string kind =
            req.body.find("kind") ? req.body.at("kind").as_string() : "monge";
        Rng rng(seed);
        ArrayEntry entry;
        if (kind == "monge") {
          entry.kind = ArrayEntry::Kind::Monge;
          entry.data = monge::random_monge(rows, cols, rng);
        } else if (kind == "inverse_monge") {
          entry.kind = ArrayEntry::Kind::InverseMonge;
          entry.data = monge::random_inverse_monge(rows, cols, rng);
        } else if (kind == "staircase") {
          entry.kind = ArrayEntry::Kind::Staircase;
          auto inst = monge::random_staircase_monge(rows, cols, rng);
          entry.data = std::move(inst.base);
          entry.frontier = std::move(inst.frontier);
        } else {
          throw JsonError("bad_request: unknown kind \"" + kind + "\"");
        }
        Json::Obj o;
        o["array"] = registry_.add(std::move(entry));
        return make_ok_response(req.id, Json(std::move(o)));
      }
      default:
        return make_error_response(
            req.id, "unknown_op: " + req.body.at("op").as_string());
    }
  } catch (const JsonError& e) {
    return make_error_response(req.id, e.what());
  } catch (const std::exception& e) {
    return make_error_response(req.id, std::string("internal: ") + e.what());
  }
}

Json Service::stats_json() const {
  Json snap = metrics_.snapshot();
  Json::Obj out = snap.obj();
  const CacheStats cs = cache_.stats();
  Json::Obj cache;
  cache["enabled"] = cache_.enabled();
  cache["hits"] = cs.hits;
  cache["misses"] = cs.misses;
  cache["insertions"] = cs.insertions;
  cache["evictions"] = cs.evictions;
  cache["invalidations"] = cs.invalidations;
  cache["poisoned"] = cs.poisoned;
  cache["entries"] = cs.entries;
  out["cache"] = Json(std::move(cache));
  const ResilienceSnapshot rs = batcher_.resilience();
  Json::Obj res;
  res["retries"] = rs.retries;
  res["batch_retries"] = rs.batch_retries;
  res["degraded_groups"] = rs.degraded_groups;
  res["breaker_opens"] = rs.breaker_opens;
  res["fault_errors"] = rs.fault_errors;
  res["breaker_open"] = rs.breaker_open;
  out["resilience"] = Json(std::move(res));
  const fault::Config fc = fault::config();
  Json::Obj flt;
  flt["armed"] = fc.armed;
  flt["seed"] = fc.seed;
  flt["rate_bp"] = static_cast<std::int64_t>(fc.rate_bp);
  flt["sites"] = fault::sites_to_string(fc.site_mask);
  Json::Obj injected;
  for (std::size_t i = 0; i < fault::kSiteCount; ++i) {
    const auto s = static_cast<fault::Site>(i);
    injected[fault::site_name(s)] = fault::injected(s);
  }
  flt["injected"] = Json(std::move(injected));
  flt["total"] = fault::injected_total();
  out["fault"] = Json(std::move(flt));
  Json::Obj planner;
  planner["enabled"] = planner_.enabled();
  planner["profile"] = planner_.profile().id;
  planner["threads"] = static_cast<std::int64_t>(planner_.threads());
  out["planner"] = Json(std::move(planner));
  Json::Obj queue;
  queue["capacity"] = queue_->capacity();
  queue["depth"] = queue_->size();
  queue["high_water"] = queue_->high_water();
  queue["admitted"] = queue_->admitted();
  queue["overloaded"] = queue_->overloaded();
  queue["inline"] = inline_answered_.value();
  out["queue"] = Json(std::move(queue));
  Json::Obj reg;
  reg["arrays"] = registry_.count();
  out["registry"] = Json(std::move(reg));
  const exec::PoolStats es = exec::pool_stats();
  Json::Obj ex;
  ex["threads"] = static_cast<std::int64_t>(es.threads);
  ex["batches"] = es.batches;
  ex["submit_waits"] = es.submit_waits;
  ex["submit_wait_us"] = es.submit_wait_us;
  Json::Arr workers;
  for (const auto& lane : es.workers) {
    Json::Obj wk;
    wk["busy_us"] = lane.busy_us;
    wk["chunks"] = lane.chunks;
    workers.emplace_back(std::move(wk));
  }
  ex["workers"] = Json(std::move(workers));
  Json::Obj external;
  external["busy_us"] = es.external.busy_us;
  external["chunks"] = es.external.chunks;
  ex["external"] = Json(std::move(external));
  out["exec"] = Json(std::move(ex));
  const support::AllocStats as = support::alloc_stats();
  Json::Obj alloc;
  alloc["arena_reserved_bytes"] = as.arena_reserved_bytes;
  alloc["arena_high_water_bytes"] = as.arena_high_water_bytes;
  alloc["pool_hits"] = as.pool_hits;
  alloc["pool_misses"] = as.pool_misses;
  alloc["fast_path_hits"] = as.fast_path_hits;
  out["alloc"] = Json(std::move(alloc));
  Json::Obj trace;
  trace["enabled"] = obs::enabled();
  trace["dropped"] = obs::dropped_total();
  out["trace"] = Json(std::move(trace));
  out["index"] = indexes_.stats_json();
  out["uptime_ms"] = static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  Json::Obj build;
  build["git"] = support::build_git_describe();
  build["compiler"] = support::build_compiler();
  out["build"] = Json(std::move(build));
  {
    // Front-end hooks (set_extra_stats): the TCP server contributes its
    // transport counters here so `stats` tells one story per process.
    std::lock_guard<std::mutex> lock(extra_stats_mu_);
    for (const auto& [key, fn] : extra_stats_) out[key] = fn();
  }
  return Json(std::move(out));
}

}  // namespace pmonge::serve
