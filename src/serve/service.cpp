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

bool Service::hit_probe_applies(Op op, std::int64_t deadline_ms) const {
  // A hit may be answered before its request exists only when nothing
  // that precedes the cache applies: no deadline (deadline admission
  // comes first), no tracing or armed faults (both hook the later
  // stages), and a cacheable op (explain reports live observations).
  return cache_.enabled() && op_spec(op).query && op != Op::Explain &&
         deadline_ms < 0 && opts_.default_deadline_ms < 0 &&
         !obs::enabled() && !fault::armed();
}

bool Service::serve_hit(const FastQuery& q, ServeClock::time_point arrived,
                        std::string& out) {
  const std::size_t mark = out.size();
  const std::size_t warm_capacity = out.capacity();
  if (q.id != kNoId) {
    out += "{\"id\":";
    support::append_int(out, q.id);
    out += ",\"ok\":true,\"result\":";
  } else {
    out += "{\"ok\":true,\"result\":";
  }
  if (!cache_.get_hit(q.signature, q.hash, out)) {
    out.resize(mark);
    return false;
  }
  out.push_back('}');

  // The per-endpoint accounting a cached hit gets on any path: admitted,
  // hit, ok, and submit-to-answer latency.
  EndpointMetrics& em = metrics_.endpoint(q.op);
  em.requests.add();
  em.cache_hits.add();
  em.ok.add();
  em.latency_us.record(us_between(arrived, ServeClock::now()));
  support::alloc_note_fast_path_hit();
  if (out.capacity() == warm_capacity && warm_capacity != 0) {
    support::alloc_note_pool_hit();
  } else {
    support::alloc_note_pool_miss();
  }
  return true;
}

bool Service::try_serve_fast(std::string_view line, std::string& out) {
  FastQuery q;
  return opts_.fast_path && thread_codec().canonicalize_query(line, q) &&
         hit_probe_applies(q.op, q.deadline_ms) &&
         serve_hit(q, ServeClock::now(), out);
}

namespace {

/// `rec` as a span over [from, to] for a request of op `op`,
/// reconstructed from timestamps the path reads anyway (the RAII Span
/// cannot straddle threads, and would read the clock twice more).  It
/// lands on the emitting thread's lane unless `lane` names another.
obs::SpanRecord& set_interval(obs::SpanRecord& rec, const char* name, Op op,
                              std::uint64_t trace_id,
                              ServeClock::time_point from,
                              ServeClock::time_point to,
                              std::uint32_t lane = obs::kThisLane) {
  rec.name = name;
  rec.trace_id = trace_id;
  rec.start_us = obs::to_trace_us(from);
  // Both ends on the trace's microsecond grid, as a Span's are, so spans
  // that end together end at the same microsecond.
  const std::uint64_t end_us = obs::to_trace_us(to);
  rec.dur_us = end_us > rec.start_us ? end_us - rec.start_us : 0;
  rec.lane = lane;
  rec.set_detail(op_spec(op).name);
  return rec;
}

}  // namespace

bool Service::submit_line(std::string_view line, std::string& out,
                          InlineAllowance& allowance,
                          const std::function<ResponseCallback()>& queued) {
  // The line's one arrival stamp: where its latency, its deadline and
  // (traced) its serve.admit span start, and a queued line's enqueue
  // stamp.
  const auto arrived = ServeClock::now();
  const bool traced = obs::enabled();
  // A line admission answers itself gets a serve.admit span to its end.
  const auto admit_span = [&](Op op, std::uint64_t trace_id) {
    if (!traced) return;
    obs::SpanRecord rec;
    obs::emit(set_interval(rec, "serve.admit", op, trace_id, arrived,
                           ServeClock::now()));
  };

  // The codec's one pass: a query it accepts brings its signature and
  // hash from here to the cache probe, the handler and the cache insert.
  FastQuery q;
  const bool coded = opts_.fast_path &&
                     thread_codec().canonicalize_query(line, q) &&
                     op_spec(q.op).query;
  bool probe_missed = false;
  if (coded && hit_probe_applies(q.op, q.deadline_ms)) {
    if (serve_hit(q, arrived, out)) return true;
    probe_missed = true;
  }

  Request req;
  if (coded) {
    req.id = q.id;
    req.op = q.op;
    req.signature.assign(q.signature);  // the codec's buffer is reused
    req.hash = q.hash;
    req.index_fields();
    req.deadline_ms = q.deadline_ms;
    req.trace_id = q.trace_id;
  } else {
    try {
      parse_request_into(line, req);
    } catch (const std::exception& e) {
      metrics_.endpoint(Op::Other).errors.add();
      // Envelope-shape errors arrive pre-categorized as bad_request; only
      // raw lexer failures get the parse_error category here.  An error
      // after the id parsed echoes it.
      std::string msg = e.what();
      if (!msg.starts_with("bad_request: ")) msg = "parse_error: " + msg;
      append_error_response(req.id, msg, out);
      admit_span(req.op, req.trace_id);
      return true;
    }
  }

  if (!op_spec(req.op).query) {
    EndpointMetrics& em = metrics_.endpoint(req.op);
    em.requests.add();
    out += handle_control(req);
    em.latency_us.record(us_between(arrived, ServeClock::now()));
    admit_span(req.op, req.trace_id);
    return true;
  }

  // Query ops: mint a trace id when tracing is on and the client did not
  // supply one.  The id rides the Request (envelope field), never the
  // response, so answer bytes stay identical tracing on or off.
  if (req.trace_id == 0 && traced) req.trace_id = obs::new_trace_id();

  std::int64_t deadline_ms = req.deadline_ms;
  if (deadline_ms < 0) deadline_ms = opts_.default_deadline_ms;
  const auto deadline = deadline_ms < 0
                            ? kNoDeadline
                            : arrived + std::chrono::milliseconds(deadline_ms);

  EndpointMetrics& em = metrics_.endpoint(req.op);

  // Price the query when the deadline check or the inline rule needs it,
  // resolving its operands once for both and for an inline run.  The
  // queued path stays where it adds something: explain times a worker
  // run, armed faults hook the worker's stages, and a non-idle queue
  // holds earlier lines (or a paused worker) that this one must not
  // overtake.  An empty grant (a busy front-end) is checked first, so a
  // loaded front-end neither locks the queue nor prices the query.
  const bool check_deadline =
      planner_.enabled() && deadline_ms >= 0 && req.op != Op::Explain;
  const bool may_inline = allowance.left_us > 0 && req.op != Op::Explain &&
                          !fault::armed() && queue_->idle();
  Admitted admitted{{}, probe_missed};
  double price_us = 0;
  if (check_deadline || may_inline) {
    admitted.operands = resolve_operands(req, registry_);
    price_us =
        planner_.predicted_us(query_shape(req, admitted.operands[0].get()));
  }

  // Deadline-aware admission: if the cost model already knows the
  // deadline cannot be met, reject before the request burns queue space
  // or engine time.  explain is exempt (it exists to report the plan).
  if (check_deadline && price_us > static_cast<double>(deadline_ms) * 1000.0) {
    em.unmeetable.add();
    em.errors.add();
    append_error_response(
        req.id,
        "deadline_unmeetable: predicted " +
            std::to_string(static_cast<std::int64_t>(std::llround(price_us))) +
            "us exceeds deadline " + std::to_string(deadline_ms) + "ms",
        out);
    admit_span(req.op, req.trace_id);
    return true;
  }
  if (may_inline && allowance.take(price_us)) {
    answer_inline(req, admitted, deadline, arrived, traced, out);
    return true;
  }

  // Admission jitter site: a seeded pre-enqueue sleep that shuffles
  // arrival order.  Response bytes never depend on batch composition, so
  // this can only move latency, never answers.
  if (fault::armed() && fault::should_fire(fault::Site::ServeAdmitJitter)) {
    fault::fire_delay(fault::Site::ServeAdmitJitter);
  }
  // The request owns its signature and resolves its operands again when
  // it runs, and the worker probes the cache again: a duplicate may have
  // been cached while it waited.  It is enqueued at its arrival stamp,
  // so its latency and its serve.request span cover its admission;
  // traced, the worker emits its serve.admit span, the arrival instant,
  // on this thread's lane.
  const ResponseCallback done = queued();
  const std::int64_t id = req.id;
  const Op op = req.op;
  const std::uint64_t trace_id = req.trace_id;
  // `done` stays copied for the reject path.
  Pending p{std::move(req), done, traced, traced ? obs::this_lane() : 0};
  if (queue_->try_push(std::move(p), deadline, arrived) ==
      AdmitResult::Overloaded) {
    // try_push consumed p (by-value argument) even on rejection, taking
    // its callback copy with it; answer through the one we kept.
    em.overloaded.add();
    admit_span(op, trace_id);
    done(make_error_response(id, "overloaded"));
    return false;
  }
  em.requests.add();
  return false;
}

void Service::answer_inline(const Request& req, const Admitted& admitted,
                            ServeClock::time_point deadline,
                            ServeClock::time_point arrived, bool traced,
                            std::string& out) {
  // A batch of one on the calling thread: the same batcher, cache pass
  // and response bytes as a worker batch, minus the two thread hand-offs.
  // Not a worker batch, so `batches` and `batch_size` do not count it.
  // Its latency runs from arrival; the clock is read at the run's start
  // only for a deadline or a serve.request span.
  const auto t0 = deadline != kNoDeadline || traced ? ServeClock::now()
                                                    : arrived;
  EndpointMetrics& em = metrics_.endpoint(req.op);
  em.requests.add();
  inline_answered_.add();
  ServeClock::time_point done;
  if (deadline != kNoDeadline && t0 >= deadline) {
    // The queue's rule, with the worker's bytes: a deadline that passed
    // before the run answers deadline_expired without running.
    em.expired.add();
    em.errors.add();
    append_error_response(req.id, "deadline_expired", out);
    done = ServeClock::now();
    em.latency_us.record(us_between(arrived, done));
  } else {
    BatchOutcome outcome;
    run_batch({&req, 1}, {&deadline, 1}, {&outcome, 1}, {&admitted, 1});
    done = respond(req, outcome, arrived, out);
  }
  if (traced) {
    // On the line's own thread, admission holds the run it leads to.
    obs::SpanRecord spans[2];
    set_interval(spans[0], "serve.admit", req.op, req.trace_id, arrived, done);
    set_interval(spans[1], "serve.request", req.op, req.trace_id, t0, done);
    obs::emit_all(spans);
  }
}

void Service::run_batch(std::span<const Request> reqs,
                        std::span<const ServeClock::time_point> deadlines,
                        std::span<BatchOutcome> out,
                        std::span<const Admitted> admitted) {
  try {
    batcher_.run(reqs, deadlines, out, admitted);
  } catch (const std::exception& e) {
    // The batcher's contract is to never throw; if something slips
    // through anyway, answer the batch instead of killing the thread that
    // ran it (for the one worker, that would hang every later request).
    for (BatchOutcome& o : out) {
      o = BatchOutcome{};
      o.error = std::string("internal: ") + e.what();
    }
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
  std::string out;
  std::shared_ptr<std::promise<std::string>> answer;
  InlineAllowance allowance;
  if (submit_line(line, out, allowance, [&]() -> ResponseCallback {
        answer = std::make_shared<std::promise<std::string>>();
        return [answer](std::string resp) {
          answer->set_value(std::move(resp));
        };
      })) {
    std::promise<std::string> answered;
    answered.set_value(std::move(out));
    return answered.get_future();
  }
  return answer->get_future();
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

void Service::worker_loop() {
  obs::set_lane_name("serve-worker");
  // Per request, its serve.request span from arrival (its enqueue stamp)
  // to answer and, when it was traced at admission, its serve.admit span:
  // the arrival instant, on the lane that admitted it.  One buffer for
  // the worker's life, so its records stay in cache between batches.
  std::vector<obs::SpanRecord> req_spans;
  while (true) {
    auto batch = queue_->pop_batch(opts_.batch_max);
    if (batch.empty()) return;  // stopped and drained

    obs::Span span("serve.batch");
    span.set_arg("requests", batch.size());
    req_spans.clear();
    const bool traced = obs::enabled();
    const auto trace_request = [&](const Request& r, const Pending& p,
                                   ServeClock::time_point enqueued,
                                   ServeClock::time_point done) {
      set_interval(req_spans.emplace_back(), "serve.request", r.op,
                   r.trace_id, enqueued, done);
      if (p.traced) {
        req_spans.push_back(req_spans.back());  // same start, id and op
        obs::SpanRecord& admit = req_spans.back();
        admit.name = "serve.admit";
        admit.dur_us = 0;
        admit.lane = p.lane;
      }
    };

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
        if (traced) {
          trace_request(r, batch[i].item, batch[i].enqueued, done);
          obs::emit_all(req_spans);
          req_spans.clear();
        }
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
    std::vector<BatchOutcome> outcomes(reqs.size());
    run_batch(reqs, deadlines, outcomes);

    std::vector<std::string> responses;
    responses.reserve(outcomes.size());
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
      const auto enqueued = batch[live_idx[t]].enqueued;
      const auto done = respond(reqs[t], outcomes[t], enqueued,
                                responses.emplace_back());
      if (traced) {
        trace_request(reqs[t], batch[live_idx[t]].item, enqueued, done);
      }
    }
    // Spans land before callbacks resolve: a client that saw its answer
    // can immediately `trace` and find its serve.admit and serve.request
    // spans.
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
