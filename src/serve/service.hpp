// The long-lived in-process query service: registry + admission queue +
// batcher + sharded result cache + metrics, behind a one-line-in /
// one-line-out NDJSON API (serve/protocol.hpp).  pmonge-serve
// (serve/main.cpp) is the stdin/stdout front-end; tests and embedders
// use the class directly.
//
// Plumbing (docs/serving.md has the full picture):
//
//   submit_line(line) --one arrival stamp (latency, deadline, enqueue
//       time), codec: one canonicalization, one hash--> a query
//       the codec accepts?  cached hit => answered at once, no request
//       built (try_serve_fast is this step alone)
//       \-> request from the codec, or from a DOM when the codec refused
//            the line --> control op?  handled synchronously
//            \-> query op --> deadline unmeetable?  rejected
//                 \-> queue idle, not explain, faults disarmed, and
//                      priced within the read's InlineAllowance (empty
//                      once the front-end's IdleBank is spent)?  Batcher
//                      runs it alone on the calling thread, its operand
//                      resolved once and its cache probed once
//                 \-> else AdmissionQueue (bounded; full => immediate
//                      `overloaded` rejection)
//   worker thread:  pop_batch(batch_max) --> expired deadlines answered
//                   `deadline_expired` --> Batcher coalesces the rest into
//                   engine runs --> callbacks fulfilled
//
// An answer made during submit_line goes straight into the caller's
// buffer; only a line that queues gets a callback.
//
// Determinism guarantee: the bytes of every query response depend only on
// the request and the registered operand -- not on PMONGE_THREADS, not on
// batching on/off, not on cache warm/cold, not on what shared the batch,
// not on the planner toggle or the loaded cost profile, not on tracing.
// `stats` and `explain` are the deliberate exceptions (they report live
// counters / measured timings).
//
// Deadline-aware admission: when the planner is on and a request carries
// a deadline, submit_line compares the plan's predicted latency against
// it and answers `deadline_unmeetable` immediately -- the request never
// enters the queue or the engine.  A deadline that has passed when a
// query would run answers `deadline_expired`, inline or queued.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "index/index.hpp"
#include "plan/cost_model.hpp"
#include "plan/planner.hpp"
#include "pram/machine.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace pmonge::serve {

/// Predicted work, in the planner's microseconds, that a front-end may
/// run on its own thread per grant: one grant per read of the rpc loop
/// (covering every line that read framed) and per stdin line while the
/// front-end's IdleBank lasts, and one per Service::submit call.  While
/// nothing is queued, a query priced within what is left of its grant
/// skips the hand-off to the worker; the rest queue.  burst_mix prices
/// each line at <= 31 us, so a read of its eight lines runs inline,
/// while a 600-character string edit (priced at its own shape, about
/// 1.1 ms) always goes to the worker.  It also bounds how long one read
/// can hold the rpc loop.
inline constexpr double kInlineAllowanceUs = 250.0;

/// The most idle time, and the most busy time, an IdleBank remembers, in
/// wall-clock microseconds.  Enough to answer a whole 32-line burst_mix
/// burst inline after an idle spell, with room for a host that runs it
/// slowly (with the server on one CPU, a 250-us bank left 51-70% of its
/// cache misses to the worker, a 1-ms bank 2-8%); a front-end that stays
/// busier than idle stops granting within this much busy time.
inline constexpr double kIdleBankUs = 2000.0;

/// What is left of one grant of kInlineAllowanceUs.
struct InlineAllowance {
  double left_us = kInlineAllowanceUs;

  /// Spend `us` if it fits in what is left.
  bool take(double us) {
    if (!(us <= left_us)) return false;
    left_us -= us;
    return true;
  }
};

/// A front-end thread's idle bank: time spent waiting for input minus
/// time spent busy, kept within +-kIdleBankUs.  The rpc loop and the
/// stdin reader take their grants from it: a full grant while the bank
/// covers the time since the thread last waited, an empty one after.
/// So a front-end answers inline for about as long as it idles, and one
/// that is behind its input hands its lines to the worker and goes back
/// to reading.  One per thread; not thread-safe.
class IdleBank {
 public:
  /// Book a wait for input that ran from `from` to `to`: debit the busy
  /// time since the previous wait ended, credit this one.
  void waited(ServeClock::time_point from, ServeClock::time_point to) {
    bank_us_ = std::clamp(bank_us_ - us(woke_, from), -kIdleBankUs,
                          kIdleBankUs);
    bank_us_ = std::min(kIdleBankUs, bank_us_ + us(from, to));
    woke_ = to;
  }

  /// The grant for input read at `now`.
  InlineAllowance grant(ServeClock::time_point now) const {
    const bool covered = bank_us_ > us(woke_, now);
    return InlineAllowance{covered ? kInlineAllowanceUs : 0.0};
  }

 private:
  static double us(ServeClock::time_point a, ServeClock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  }

  double bank_us_ = 0;
  ServeClock::time_point woke_ = ServeClock::now();
};

struct ServiceOptions {
  std::size_t queue_capacity = 1024;  // admission bound
  std::size_t batch_max = 64;         // max requests per worker batch
  std::size_t cache_capacity = 4096;  // cached results; 0 disables
  std::size_t cache_shards = 8;
  bool coalesce = true;               // batching layer on/off
  pram::Model model = pram::Model::CRCW_COMMON;
  std::int64_t default_deadline_ms = -1;  // applied when a request has none
  std::size_t max_register_cells = std::size_t{1} << 24;  // register guard
  bool planner = true;                // adaptive execution planner on/off
  plan::CostProfile profile = plan::builtin_profile();  // cost-model constants
  ResilienceOptions resilience;       // retry / timeout / breaker knobs
  // The codec at the front (serve/codec.hpp): canonicalize each line in
  // one pass, answer a cached hit before any request is built, and build
  // a query's request without a DOM.  Off is the pre-codec behavior:
  // every line is parsed into a DOM and every query probes the cache in
  // the batcher.  Responses are byte-identical either way (test_codec
  // asserts it over every golden transcript), so the toggle exists for
  // A/B benchmarking and differential tests, not semantics.
  bool fast_path = true;
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// A queued line's response consumer, invoked exactly once, on the
  /// worker thread (or on the submitting thread for an `overloaded`
  /// rejection).  Must be copyable (the service keeps a copy across the
  /// admission hand-off) and must not throw.
  using ResponseCallback = std::function<void(std::string)>;

  /// Answer one request line: each front-end's one call per line.  The
  /// codec canonicalizes it once; a cached hit, a control op, a
  /// rejection or a query run inline appends its answer (no newline) to
  /// `out` and returns true.  Otherwise the line queues and submit_line
  /// returns false with `out` untouched, having called `queued` once for
  /// the callback its answer goes to, so a front-end builds a callback
  /// only for such a line.  A query runs inline on the calling thread,
  /// charged to `allowance`, when the admission queue is idle (empty, not
  /// paused, not stopped), it is not `explain`, faults are disarmed, and
  /// the planner's price for it fits what is left of `allowance`.
  /// Thread-safe.
  bool submit_line(std::string_view line, std::string& out,
                   InlineAllowance& allowance,
                   const std::function<ResponseCallback()>& queued);

  /// submit_line under a grant of its own.  Cached hits, control ops and
  /// queries answered inline resolve before returning; queued query ops
  /// resolve when the worker answers (immediately with `overloaded` if
  /// the admission queue is full).  Thread-safe.
  std::future<std::string> submit(std::string line);

  /// Synchronous single request.
  std::string request(const std::string& line);

  /// submit_line's first step alone, the zero-allocation cached hit: if
  /// `line` is a query the codec accepts, no deadline applies, and its
  /// signature is in the result cache, appends the full response (no
  /// newline) to `out` and returns true.  False means "not served";
  /// nothing was counted and `out` is untouched.  Thread-safe.
  bool try_serve_fast(std::string_view line, std::string& out);

  /// Submit all lines, then wait; responses align with `lines`.
  std::vector<std::string> request_batch(const std::vector<std::string>& lines);

  /// Test/bench hook: hold the worker so submissions accumulate and pop
  /// as one coalesced batch on resume().  Deadlines keep ticking.
  void pause();
  void resume();

  const ServiceOptions& options() const { return opts_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t queue_depth() const { return queue_->size(); }

  /// Register an extra top-level section for the `stats` op (and the
  /// Prometheus exposition derived from it).  The TCP front-end hooks
  /// its transport counters in as "rpc".  Re-registering a key replaces
  /// it.  Thread-safe; `fn` is called on the stats-reading thread.
  void set_extra_stats(const std::string& key, std::function<Json()> fn);

 private:
  struct Pending {
    Request req;
    ResponseCallback done;
    // Traced at admission, and on which lane: the worker emits its
    // serve.admit span with the batch's spans.
    bool traced = false;
    std::uint32_t lane = 0;
  };

  std::string handle_control(const Request& req);
  Json stats_json() const;
  void worker_loop();
  bool hit_probe_applies(Op op, std::int64_t deadline_ms) const;
  bool serve_hit(const FastQuery& q, ServeClock::time_point arrived,
                 std::string& out);
  void answer_inline(const Request& req, const Admitted& admitted,
                     ServeClock::time_point deadline,
                     ServeClock::time_point arrived, bool traced,
                     std::string& out);
  void run_batch(std::span<const Request> reqs,
                 std::span<const ServeClock::time_point> deadlines,
                 std::span<BatchOutcome> out,
                 std::span<const Admitted> admitted = {});
  ServeClock::time_point respond(const Request& r, const BatchOutcome& o,
                                 ServeClock::time_point since,
                                 std::string& resp);

  ServiceOptions opts_;
  Registry registry_;
  ShardedLruCache cache_;
  ServiceMetrics metrics_;
  plan::Planner planner_;
  index::IndexManager indexes_;  // before batcher_: passed by reference
  Batcher batcher_;
  std::unique_ptr<AdmissionQueue<Pending>> queue_;
  support::Counter inline_answered_;  // queries run by runs_inline's rule
  mutable std::mutex extra_stats_mu_;
  std::vector<std::pair<std::string, std::function<Json()>>> extra_stats_;
  std::chrono::steady_clock::time_point start_;  // for stats uptime_ms
  std::thread worker_;
};

}  // namespace pmonge::serve
