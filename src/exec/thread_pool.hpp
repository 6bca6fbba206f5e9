// Host-parallel execution engine: a reusable worker pool over which the
// PRAM simulator's primitives actually run concurrently.
//
// Design constraints (see docs/cost_model.md, "Charged cost vs wall
// clock"):
//   * The engine must never influence *results* or *charged costs*.  All
//     observable state -- algorithm outputs, CostMeter totals, model-
//     violation detection -- is identical whether a computation runs on
//     1 thread or 64.  The pool therefore only ever executes batches of
//     independent chunks whose decomposition is fixed by the caller.
//   * Nested parallelism is the common case: Machine::parallel_branches
//     recurses, and every branch issues engine work of its own.  The pool
//     is submit-and-participate: the submitting thread executes chunks of
//     its own batch alongside the workers, so a batch can always be
//     finished by its submitter alone and nesting cannot deadlock.
//   * Exceptions thrown by chunk bodies (ModelViolation, PMONGE_REQUIRE
//     failures, ...) are captured, the batch is cancelled, and the first
//     exception is rethrown on the submitting thread.
//
// Sizing: the global pool reads PMONGE_THREADS (default: hardware
// concurrency) once at first use; set_num_threads() rebuilds it for
// tests and benchmarks.  If worker threads cannot be created at all the
// pool degrades to serial in-place execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pmonge::exec {

namespace detail {

/// One submitted batch: chunks [0, nchunks) claimed by atomic ticket.
/// Lives in a shared_ptr so stragglers can finish a chunk after the
/// batch left the pool's queue.
struct Batch {
  void (*invoke)(void* ctx, std::size_t chunk) = nullptr;
  void* ctx = nullptr;
  std::size_t nchunks = 0;
  std::uint64_t trace_id = 0;  // submitter's obs trace id (0 = none)
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::mutex mu;  // guards err; also serializes the completion notify
  std::condition_variable cv;
  std::exception_ptr err;
};

}  // namespace detail

/// Engine profiling snapshot (always on: two clock reads per batch
/// participation, counter updates are relaxed atomics).  Surfaced by the
/// serve `stats` endpoint and obs/prometheus.
struct PoolStats {
  struct Lane {
    std::uint64_t busy_us = 0;  // time spent inside work_on with chunks
    std::uint64_t chunks = 0;   // chunks this lane claimed
  };
  std::size_t threads = 1;           // lanes incl. submitters
  std::uint64_t batches = 0;         // batches submitted to the pool
  std::uint64_t submit_waits = 0;    // submitters that had to block on
                                     // worker-claimed chunks
  std::uint64_t submit_wait_us = 0;  // total time submitters blocked
  std::vector<Lane> workers;         // one per pool worker thread
  Lane external;                     // all submitting threads combined
};

class ThreadPool {
 public:
  /// A pool with `threads` execution lanes total: the submitting thread
  /// plus threads-1 workers.  threads == 1 (or worker-creation failure)
  /// means strictly serial execution.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (submitter included); >= 1.
  std::size_t threads() const { return workers_.size() + 1; }

  /// Execute chunk(c) for every c in [0, nchunks), distributing chunks
  /// across the pool; the calling thread participates until the batch is
  /// drained.  Chunks must be independent.  The first exception thrown by
  /// any chunk is rethrown here after all claimed chunks retire; the
  /// remaining unclaimed chunks of a failed batch are skipped.
  template <class F>
  void run_chunks(std::size_t nchunks, F&& chunk) {
    if (nchunks == 0) return;
    if (workers_.empty() || nchunks == 1) {
      for (std::size_t c = 0; c < nchunks; ++c) chunk(c);
      return;
    }
    auto trampoline = [](void* ctx, std::size_t c) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(c);
    };
    run_batch(nchunks, trampoline, std::addressof(chunk));
  }

  /// Profiling counters (see PoolStats).  Safe to call concurrently with
  /// running batches; a snapshot may miss in-flight increments.
  PoolStats stats() const;

 private:
  /// Per-lane profiling counters, cache-line padded: each lane writes
  /// only its own.
  struct alignas(64) LaneCounters {
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<std::uint64_t> chunks{0};
  };

  void run_batch(std::size_t nchunks, void (*invoke)(void*, std::size_t),
                 void* ctx);
  void work_on(detail::Batch& b, LaneCounters& lane);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::unique_ptr<LaneCounters[]> lane_counters_;  // one per worker
  LaneCounters external_;  // submitting threads (shared slot)
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> submit_waits_{0};
  std::atomic<std::uint64_t> submit_wait_us_{0};
  std::deque<std::shared_ptr<detail::Batch>> queue_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  bool stop_ = false;
};

/// The process-global engine, sized from PMONGE_THREADS (default:
/// std::thread::hardware_concurrency()) on first use.
ThreadPool& pool();

/// Execution lanes of the global engine (>= 1).
std::size_t num_threads();

/// Profiling counters of the global engine.
PoolStats pool_stats();

/// Rebuild the global engine with `threads` lanes (>= 1).  Intended for
/// tests and benchmarks only; must not be called while engine work is in
/// flight on any thread.
void set_num_threads(std::size_t threads);

/// Depth of SerialScope nesting on the calling thread (0 = none active).
std::size_t serial_scope_depth();

/// RAII: while alive on this thread, every data-parallel skeleton and
/// every fork runs its chunks in place on the calling thread instead of
/// submitting to the pool.  Execution strategy only -- results and
/// charged costs are identical either way (the chunk decomposition never
/// changes).  The serve layer's degraded path and explicitly serial
/// callers use it to keep whole computations off the pool.  Nests.
class SerialScope {
 public:
  SerialScope();
  ~SerialScope();
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;
};

}  // namespace pmonge::exec
