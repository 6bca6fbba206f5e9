// End-to-end tracing: low-overhead span capture across the serving stack
// (serve admission -> batcher group -> plan selection -> par:: kernel ->
// exec engine chunks), exportable as Chrome trace-event JSON
// (obs/chrome_trace.hpp) and summarized into the `stats` endpoint.
//
// Design constraints (docs/observability.md has the full story):
//   * Off by default; enabled via PMONGE_TRACE=1 (or set_enabled()).  With
//     tracing off, a Span costs exactly one relaxed atomic load -- nothing
//     is timed, allocated or written.
//   * A worker thread is never blocked by tracing.  Completed spans go
//     into a fixed-capacity per-thread ring buffer; when the ring is full
//     the oldest span is overwritten (drop-oldest) and a dropped-span
//     counter advances.  The only synchronization on the write path is a
//     try_lock against the collector -- an uncontended CAS in steady
//     state; if the collector happens to hold the ring (it drains in
//     microseconds), the span is dropped and counted rather than waited
//     for.
//   * Tracing never influences results.  Trace ids ride in thread-local
//     context and a separate request-envelope field ("trace_id", stripped
//     from cache signatures like "id"); query response bytes are
//     bit-identical with tracing on or off (enforced by tests/test_obs).
//
// Span model: a SpanRecord is one closed interval on one thread lane,
// carrying wall-clock microseconds *and* the charged PRAM time/work of
// the computation it covers, so exported traces show the paper's
// predicted cost next to the measured one (Lemma 2.1 / Theorem 2.3
// accounting, in the work/span-profiling spirit of sptl).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pmonge::obs {

/// SpanRecord::lane's default: the lane of the thread that emits it.
inline constexpr std::uint32_t kThisLane = 0xffffffffu;

/// One closed span.  `name` and `arg_name` must be static-lifetime
/// strings (literals); `detail` is a short truncating copy for dynamic
/// labels (op names, algorithm names).
struct SpanRecord {
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr = no numeric argument
  std::uint64_t trace_id = 0;      // 0 = not tied to a request
  std::uint64_t start_us = 0;      // microseconds since the trace epoch
  std::uint64_t dur_us = 0;
  std::uint64_t charged_time = 0;  // simulated-PRAM steps covered
  std::uint64_t charged_work = 0;  // simulated-PRAM work covered
  std::uint64_t arg = 0;
  std::uint32_t lane = kThisLane;  // thread lane (see Snapshot::lanes)
  char detail[20] = {};            // NUL-terminated, truncating

  void set_detail(std::string_view d) {
    const std::size_t n = d.size() < sizeof(detail) - 1 ? d.size()
                                                        : sizeof(detail) - 1;
    for (std::size_t i = 0; i < n; ++i) detail[i] = d[i];
    detail[n] = '\0';
  }
};

/// Is tracing on?  One relaxed atomic load (after first-use env read).
/// PMONGE_TRACE must be a clean non-negative integer; anything else
/// throws loudly at first use (pmonge-serve checks eagerly at startup).
bool enabled();
void set_enabled(bool on);

/// Fresh process-unique trace id (from 1).  Each thread takes ids from
/// the shared counter a block at a time, so minting is a thread-local
/// increment and one thread's ids ascend.  Client-supplied ids (the
/// "trace_id" request field) share the same namespace; collisions are
/// the client's concern.
std::uint64_t new_trace_id();

/// The calling thread's lane (registered at first use), for a record
/// that another thread emits on its behalf.
std::uint32_t this_lane();

/// The calling thread's current trace id (0 = none).
std::uint64_t current_trace_id();

/// RAII: spans opened on this thread while alive carry `id`.  The exec
/// engine forwards the submitting thread's id to pool workers executing
/// its chunks, so kernel-internal spans stay attributed to the request.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t id);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  std::uint64_t saved_;
};

/// Microseconds since the trace epoch (a process-global steady-clock
/// origin established at first use).
std::uint64_t now_us();
std::uint64_t to_trace_us(std::chrono::steady_clock::time_point tp);

/// RAII span scope: opens at construction, records at destruction.
/// A no-op (active() == false) when tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  void set_trace(std::uint64_t id);
  void set_charged(std::uint64_t time, std::uint64_t work);
  void set_arg(const char* name, std::uint64_t value);
  void set_detail(std::string_view d);
  /// Discard without recording.
  void cancel() { active_ = false; }

 private:
  SpanRecord rec_;
  bool active_ = false;
};

/// Record a fully-formed span (caller supplies start_us/dur_us, e.g. a
/// request interval measured against the admission clock).  A lane of
/// kThisLane is filled from the calling thread; trace_id is filled from
/// the thread context when zero.  No-op when tracing is off.
void emit(SpanRecord rec);

/// Emit many fully-formed spans with a single ring reservation -- one
/// try_lock instead of one per span.  The cheap path for per-request
/// spans, which are emitted a worker-batch at a time and are the one
/// tracing cost that scales with query throughput.  All-or-nothing on
/// collector contention (every span counted dropped).  No-op when
/// tracing is off.
void emit_all(std::span<const SpanRecord> recs);

struct Snapshot {
  std::vector<SpanRecord> spans;     // in per-lane ring order
  std::uint64_t dropped = 0;         // cumulative dropped-span count
  std::vector<std::string> lanes;    // lane index -> thread name
};

/// Drain every thread's ring into one snapshot.  Spans recorded
/// concurrently with the drain may land in the next snapshot; `dropped`
/// is cumulative (monotone across collects, zeroed by reset()).
Snapshot collect();

/// Cumulative dropped-span count without draining (for `stats`).
std::uint64_t dropped_total();

/// Clear all buffered spans and zero the dropped counters.  Lane
/// registrations (and their names) persist.  Test hook.
void reset();

/// Capacity for rings created *after* this call (each thread's ring is
/// created at its first span).  Default: PMONGE_TRACE_BUF (4096), floor
/// 16.  Test hook.
void set_ring_capacity(std::size_t cap);

/// Name the calling thread's lane in exported traces ("pool-worker-3",
/// "serve-worker", ...).  Registers the lane immediately, so named
/// threads appear in traces even before their first span.
void set_lane_name(std::string_view name);

}  // namespace pmonge::obs
