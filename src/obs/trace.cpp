#include "obs/trace.hpp"

#include <atomic>
#include <memory>
#include <mutex>

#include "support/env.hpp"

namespace pmonge::obs {

namespace {

/// One thread's span buffer.  The owning thread is the only writer and
/// only ever try_lock()s `mu` (never blocks); the collector takes `mu`
/// blocking, copies, and clears.  Slots are allocated lazily on the
/// first span so threads that never trace cost ~nothing.
struct Ring {
  std::mutex mu;
  std::vector<SpanRecord> slots;  // ring storage, size == cap once used
  std::size_t cap = 0;
  std::size_t head = 0;           // next write position
  std::size_t size = 0;
  std::uint64_t dropped_full = 0;  // overwritten-oldest count (under mu)
  std::atomic<std::uint64_t> dropped_contended{0};  // try_lock failures
  std::uint32_t lane = 0;
  std::string name;  // under mu
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
};

Registry& registry() {
  static Registry* r = new Registry;  // immortal: threads may outlive main
  return *r;
}

std::atomic<int> g_enabled{-1};  // -1 = read PMONGE_TRACE on first use
std::atomic<std::uint64_t> g_next_trace_id{1};
std::atomic<std::size_t> g_ring_cap{0};  // 0 = read PMONGE_TRACE_BUF

thread_local std::uint64_t t_trace_id = 0;
thread_local std::shared_ptr<Ring> t_ring;

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::size_t ring_capacity() {
  std::size_t c = g_ring_cap.load(std::memory_order_relaxed);
  if (c == 0) {
    c = static_cast<std::size_t>(
        support::env_uint_or("PMONGE_TRACE_BUF", 4096, /*lo=*/16));
    g_ring_cap.store(c, std::memory_order_relaxed);
  }
  return c;
}

Ring& my_ring() {
  if (!t_ring) {
    auto r = std::make_shared<Ring>();
    r->cap = ring_capacity();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    r->lane = static_cast<std::uint32_t>(reg.rings.size());
    r->name = "thread-" + std::to_string(r->lane);
    reg.rings.push_back(r);
    t_ring = std::move(r);
  }
  return *t_ring;
}

/// Store one record under r.mu, dropping the oldest when full; returns
/// its slot.
SpanRecord& append_locked(Ring& r, const SpanRecord& rec) {
  SpanRecord& slot = r.slots[r.head];
  slot = rec;
  if (++r.head == r.cap) r.head = 0;
  if (r.size == r.cap) {
    ++r.dropped_full;  // the slot we just reused held the oldest span
  } else {
    ++r.size;
  }
  return slot;
}

/// Writer-side append: non-blocking (try_lock), drop-oldest when full.
void push(Ring& r, const SpanRecord& rec) {
  std::unique_lock<std::mutex> lk(r.mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    r.dropped_contended.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (r.slots.size() != r.cap) r.slots.resize(r.cap);
  append_locked(r, rec);
}

bool init_enabled() {
  // env_uint throws loudly on malformed values (the repo-wide knob
  // contract); pmonge-serve touches enabled() eagerly so a typo'd
  // PMONGE_TRACE fails at startup, not mid-serve.
  const auto v = support::env_uint("PMONGE_TRACE");
  const bool on = v.has_value() && *v != 0;
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

}  // namespace

bool enabled() {
  const int v = g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return init_enabled();
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t new_trace_id() {
  constexpr std::uint64_t kBlock = 256;
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = g_next_trace_id.fetch_add(kBlock, std::memory_order_relaxed);
    end = next + kBlock;
  }
  return next++;
}

std::uint32_t this_lane() { return my_ring().lane; }

std::uint64_t current_trace_id() { return t_trace_id; }

TraceContext::TraceContext(std::uint64_t id) : saved_(t_trace_id) {
  t_trace_id = id;
}
TraceContext::~TraceContext() { t_trace_id = saved_; }

std::uint64_t now_us() {
  return to_trace_us(std::chrono::steady_clock::now());
}

std::uint64_t to_trace_us(std::chrono::steady_clock::time_point tp) {
  const auto d =
      std::chrono::duration_cast<std::chrono::microseconds>(tp - trace_epoch());
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

Span::Span(const char* name) {
  if (!enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.trace_id = t_trace_id;
  rec_.start_us = now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_us();
  rec_.dur_us = end > rec_.start_us ? end - rec_.start_us : 0;
  Ring& r = my_ring();
  rec_.lane = r.lane;
  push(r, rec_);
}

void Span::set_trace(std::uint64_t id) {
  if (active_) rec_.trace_id = id;
}

void Span::set_charged(std::uint64_t time, std::uint64_t work) {
  if (!active_) return;
  rec_.charged_time = time;
  rec_.charged_work = work;
}

void Span::set_arg(const char* name, std::uint64_t value) {
  if (!active_) return;
  rec_.arg_name = name;
  rec_.arg = value;
}

void Span::set_detail(std::string_view d) {
  if (active_) rec_.set_detail(d);
}

void emit(SpanRecord rec) {
  if (!enabled()) return;
  if (rec.trace_id == 0) rec.trace_id = t_trace_id;
  Ring& r = my_ring();
  if (rec.lane == kThisLane) rec.lane = r.lane;
  push(r, rec);
}

void emit_all(std::span<const SpanRecord> recs) {
  if (recs.empty() || !enabled()) return;
  Ring& r = my_ring();
  std::unique_lock<std::mutex> lk(r.mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    r.dropped_contended.fetch_add(recs.size(), std::memory_order_relaxed);
    return;
  }
  if (r.slots.size() != r.cap) r.slots.resize(r.cap);
  for (const SpanRecord& rec : recs) {
    SpanRecord& slot = append_locked(r, rec);
    if (slot.trace_id == 0) slot.trace_id = t_trace_id;
    if (slot.lane == kThisLane) slot.lane = r.lane;
  }
}

Snapshot collect() {
  Snapshot out;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    rings = reg.rings;
  }
  for (const auto& rp : rings) {
    std::lock_guard<std::mutex> lk(rp->mu);
    if (out.lanes.size() <= rp->lane) out.lanes.resize(rp->lane + 1);
    out.lanes[rp->lane] = rp->name;
    const std::size_t start =
        rp->size == 0 ? 0 : (rp->head + rp->cap - rp->size) % rp->cap;
    for (std::size_t i = 0; i < rp->size; ++i) {
      out.spans.push_back(rp->slots[(start + i) % rp->cap]);
    }
    rp->head = 0;
    rp->size = 0;
    out.dropped += rp->dropped_full +
                   rp->dropped_contended.load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t dropped_total() {
  std::uint64_t total = 0;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    rings = reg.rings;
  }
  for (const auto& rp : rings) {
    std::lock_guard<std::mutex> lk(rp->mu);
    total += rp->dropped_full +
             rp->dropped_contended.load(std::memory_order_relaxed);
  }
  return total;
}

void reset() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    rings = reg.rings;
  }
  for (const auto& rp : rings) {
    std::lock_guard<std::mutex> lk(rp->mu);
    rp->head = 0;
    rp->size = 0;
    rp->dropped_full = 0;
    rp->dropped_contended.store(0, std::memory_order_relaxed);
  }
}

void set_ring_capacity(std::size_t cap) {
  g_ring_cap.store(cap < 16 ? 16 : cap, std::memory_order_relaxed);
}

void set_lane_name(std::string_view name) {
  Ring& r = my_ring();
  std::lock_guard<std::mutex> lk(r.mu);
  r.name.assign(name.begin(), name.end());
}

}  // namespace pmonge::obs
