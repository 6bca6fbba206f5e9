#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"

namespace pmonge::exec {

using detail::Batch;

namespace {
thread_local std::size_t t_serial_depth = 0;

std::uint64_t us_since(std::chrono::steady_clock::time_point t0) {
  const auto d = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}
}  // namespace

std::size_t serial_scope_depth() { return t_serial_depth; }

SerialScope::SerialScope() { ++t_serial_depth; }
SerialScope::~SerialScope() { --t_serial_depth; }

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t want = threads == 0 ? 1 : threads;
  workers_.reserve(want - 1);
  lane_counters_ = std::make_unique<LaneCounters[]>(want);  // >= workers
  try {
    for (std::size_t i = 0; i + 1 < want; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (const std::system_error&) {
    // Thread creation unavailable (restricted sandbox, resource limits):
    // keep whatever workers started; zero workers means serial fallback.
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_batch(std::size_t nchunks,
                           void (*invoke)(void*, std::size_t), void* ctx) {
  auto b = std::make_shared<Batch>();
  b->invoke = invoke;
  b->ctx = ctx;
  b->nchunks = nchunks;
  b->trace_id = obs::current_trace_id();
  batches_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    queue_.push_back(b);
  }
  // The submitter takes a chunk itself, so at most nchunks - 1 workers
  // can help.  Workers busy elsewhere are not waiting and find the batch
  // in the queue when they next look.
  const std::size_t wake = std::min(nchunks - 1, workers_.size());
  for (std::size_t i = 0; i < wake; ++i) queue_cv_.notify_one();

  // Submit-and-participate: drain our own batch, then wait for chunks
  // claimed by workers to retire.
  work_on(*b, external_);
  if (b->done.load(std::memory_order_acquire) != b->nchunks) {
    // Stall: workers still hold claimed chunks.  The acquire load above
    // (or the one in the predicate) pairs with the workers' acq_rel
    // done-increment, so chunk effects are visible once we pass.
    submit_waits_.fetch_add(1, std::memory_order_relaxed);
    const auto w0 = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lk(b->mu);
      b->cv.wait(lk, [&] { return b->done.load(std::memory_order_acquire) ==
                                  b->nchunks; });
    }
    submit_wait_us_.fetch_add(us_since(w0), std::memory_order_relaxed);
  }
  {
    // The batch may still sit in the queue if every chunk was claimed
    // before any worker pruned it; drop it so workers stop seeing it.
    std::lock_guard<std::mutex> lk(queue_mu_);
    queue_.erase(std::remove(queue_.begin(), queue_.end(), b), queue_.end());
  }
  if (b->err) std::rethrow_exception(b->err);
}

void ThreadPool::work_on(Batch& b, LaneCounters& lane) {
  // Chunk bodies run under the submitter's trace id so kernel-internal
  // spans on pool workers stay attributed to the originating request.
  obs::TraceContext tctx(b.trace_id);
  obs::Span span("exec.chunks");
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t claimed = 0;
  for (;;) {
    const std::size_t c = b.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= b.nchunks) break;
    ++claimed;
    if (!b.cancelled.load(std::memory_order_relaxed)) {
      try {
        // Pooled chunks are the exec fault sites: a serial scope (the
        // degraded path) or a 1-chunk batch never reaches this loop, so
        // degradation genuinely dodges these injections.
        if (fault::armed()) {
          if (fault::should_fire(fault::Site::ExecChunkDelay)) {
            fault::fire_delay(fault::Site::ExecChunkDelay);
          }
          if (fault::should_fire(fault::Site::ExecChunkFault)) {
            throw fault::InjectedFault(fault::Site::ExecChunkFault);
          }
        }
        b.invoke(b.ctx, c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(b.mu);
        if (!b.err) b.err = std::current_exception();
        b.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    const std::size_t d = b.done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (d == b.nchunks) {
      // Lock pairs with the waiter's predicate check: no missed wakeup.
      std::lock_guard<std::mutex> lk(b.mu);
      b.cv.notify_all();
    }
  }
  if (claimed == 0) {
    span.cancel();  // lost the claim race entirely; nothing to show
    return;
  }
  lane.busy_us.fetch_add(us_since(t0), std::memory_order_relaxed);
  lane.chunks.fetch_add(claimed, std::memory_order_relaxed);
  span.set_arg("chunks", claimed);
}

void ThreadPool::worker_loop(std::size_t index) {
  obs::set_lane_name("pool-worker-" + std::to_string(index));
  LaneCounters& lane = lane_counters_[index];
  for (;;) {
    std::shared_ptr<Batch> b;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      // Prune fully-claimed batches (stragglers hold their own refs),
      // then take the oldest live one.
      while (!queue_.empty() &&
             queue_.front()->next.load(std::memory_order_relaxed) >=
                 queue_.front()->nchunks) {
        queue_.pop_front();
      }
      if (queue_.empty()) continue;
      b = queue_.front();
    }
    work_on(*b, lane);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.threads = threads();
  s.batches = batches_.load(std::memory_order_relaxed);
  s.submit_waits = submit_waits_.load(std::memory_order_relaxed);
  s.submit_wait_us = submit_wait_us_.load(std::memory_order_relaxed);
  s.workers.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    s.workers[i].busy_us =
        lane_counters_[i].busy_us.load(std::memory_order_relaxed);
    s.workers[i].chunks =
        lane_counters_[i].chunks.load(std::memory_order_relaxed);
  }
  s.external.busy_us = external_.busy_us.load(std::memory_order_relaxed);
  s.external.chunks = external_.chunks.load(std::memory_order_relaxed);
  return s;
}

namespace {

std::size_t resolve_default_threads() {
  if (const auto v = support::env_uint("PMONGE_THREADS")) {
    return std::max<std::uint64_t>(1, *v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::mutex g_pool_mu;
std::atomic<ThreadPool*> g_pool{nullptr};

}  // namespace

ThreadPool& pool() {
  ThreadPool* p = g_pool.load(std::memory_order_acquire);
  if (p == nullptr) {
    std::lock_guard<std::mutex> lk(g_pool_mu);
    p = g_pool.load(std::memory_order_relaxed);
    if (p == nullptr) {
      p = new ThreadPool(resolve_default_threads());
      g_pool.store(p, std::memory_order_release);
    }
  }
  return *p;
}

std::size_t num_threads() { return pool().threads(); }

PoolStats pool_stats() { return pool().stats(); }

void set_num_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  ThreadPool* fresh = new ThreadPool(threads == 0 ? 1 : threads);
  ThreadPool* old = g_pool.exchange(fresh, std::memory_order_acq_rel);
  delete old;  // joins the old workers; caller guarantees quiescence
}

}  // namespace pmonge::exec
