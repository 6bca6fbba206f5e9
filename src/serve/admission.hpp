// Bounded admission queue with per-item deadlines: the backpressure
// valve between request producers and the service worker.
//
// Invariants the service relies on:
//   * Bounded: try_push on a full queue returns Overloaded immediately --
//     the producer answers the client with an explicit `overloaded`
//     rejection instead of queueing unbounded work.
//   * No silent drops: every admitted item is eventually returned by a
//     pop_batch call, even after stop() (remaining items drain) and even
//     when its deadline has passed (the item comes back flagged
//     `expired` so the worker can answer `deadline_expired`; the queue
//     never discards it).
//   * FIFO: items pop in admission order, so responses for one client
//     stream are computed in the order sent.
//
// pause(true) holds poppers without blocking producers -- the test and
// bench hook that lets a caller accumulate a burst and observe it as one
// coalesced batch.  stop() overrides pause so shutdown always drains.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace pmonge::serve {

using ServeClock = std::chrono::steady_clock;

/// Deadline sentinel: no deadline.
inline constexpr ServeClock::time_point kNoDeadline =
    ServeClock::time_point::max();

enum class AdmitResult { Admitted, Overloaded };

template <class T>
class AdmissionQueue {
 public:
  struct Popped {
    T item;
    ServeClock::time_point enqueued;
    ServeClock::time_point deadline;
    bool expired = false;  // deadline had passed by the time it popped
  };

  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admit `item`, stamped `enqueued`, unless the queue is full.  Never
  /// blocks.
  AdmitResult try_push(T item, ServeClock::time_point deadline = kNoDeadline,
                       ServeClock::time_point enqueued = ServeClock::now()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (q_.size() >= capacity_) {
        ++overloaded_;
        return AdmitResult::Overloaded;
      }
      q_.push_back(Entry{std::move(item), enqueued, deadline});
      ++admitted_;
      if (q_.size() > high_water_) high_water_ = q_.size();
    }
    cv_.notify_one();
    return AdmitResult::Admitted;
  }

  /// Pop up to `max_n` items in FIFO order.  Blocks while the queue is
  /// empty or paused; returns an empty vector only after stop() once the
  /// queue has fully drained.
  std::vector<Popped> pop_batch(std::size_t max_n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || (!paused_ && !q_.empty()); });
    return take_locked(max_n);
  }

  /// Non-blocking pop (still honors pause unless stopped).
  std::vector<Popped> try_pop_batch(std::size_t max_n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopped_ && paused_) return {};
    return take_locked(max_n);
  }

  /// Hold poppers (true) or release them (false).  Producers are never
  /// blocked by pause; stop() overrides it.
  void pause(bool on) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = on;
    }
    cv_.notify_all();
  }

  /// Wake all poppers; subsequent pops drain the remaining items and then
  /// return empty.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  /// Empty, not paused and not stopped: nothing a new item would wait
  /// behind.  A snapshot; another producer may push right after.
  bool idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.empty() && !paused_ && !stopped_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t admitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return admitted_;
  }
  std::uint64_t overloaded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overloaded_;
  }
  /// Deepest the queue has ever been (standing depth, not rejects).
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  struct Entry {
    T item;
    ServeClock::time_point enqueued;
    ServeClock::time_point deadline;
  };

  std::vector<Popped> take_locked(std::size_t max_n) {
    const auto now = ServeClock::now();
    std::vector<Popped> out;
    while (!q_.empty() && out.size() < max_n) {
      Entry& e = q_.front();
      out.push_back(Popped{std::move(e.item), e.enqueued, e.deadline,
                           e.deadline != kNoDeadline && now >= e.deadline});
      q_.pop_front();
    }
    return out;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> q_;
  bool paused_ = false;
  bool stopped_ = false;
  std::uint64_t admitted_ = 0;
  std::uint64_t overloaded_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace pmonge::serve
