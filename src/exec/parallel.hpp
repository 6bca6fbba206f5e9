// Deterministic data-parallel skeletons over the engine's thread pool:
// parallel_for / parallel_reduce / parallel_scan / parallel_pack, plus
// the task fan-outs parallel_tasks / parallel_jobs, in the work/span
// style of Deepsea's sptl with its *oracular* granularity control.
//
// Granularity: one rule.  Every fork carries a prediction of its serial
// cost in units of charged PRAM work -- the paper's own work bounds, see
// par/monge_rowminima.hpp's rowmin_work -- and the engine splits it into
// chunks of about kForkWork (kappa) units each.  A fork predicted at or
// below kappa is one chunk and runs in place on the calling thread; only
// a larger one reaches the pool.  A data-parallel loop predicts
// n * cost_hint, so it chunks at grain_for(cost_hint) = kappa / cost_hint
// indices.  Nested forks stop reaching the pool exactly where their
// predicted work falls to kappa, however deep they sit.
//
// Determinism.  Chunk boundaries depend only on (n, grain) -- never on
// the thread count or the scheduler -- and chunk results are always
// combined serially in chunk order.  Consequently the value computed by
// every skeleton is bit-identical across thread counts (including 1),
// even for ops that are only *approximately* associative (floating-point
// sums): the association is fixed by the chunking, not by the schedule.
// Predictions only choose the chunking, so they change speed, never
// results or charged costs.
//
// Contracts: bodies/evals for distinct indices must be independent (the
// engine runs them concurrently in unspecified order); reduce/scan ops
// must be associative for the chunked association to equal the serial
// left fold.  Exceptions from bodies cancel the batch and rethrow on the
// caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace pmonge::exec {

/// kappa: the predicted charged work one chunk carries, and the most a
/// fork may carry and still run in place.  src/plan's built-in cost
/// profile prices entering the pool as exactly this much work
/// (par_dispatch_ns = kappa * par_ns_per_work = 20000 ns): below it,
/// submitting costs more than the work it would spread.  On the 4-vCPU
/// reference host (Intel Xeon KVM guest, one pinned lane, Release) serial
/// time per unit of charged work measured 0.4-0.7 ns across 16x16 to
/// 1024x1024 CRCW row-minima searches (medians of eight runs per size),
/// so kappa is about 2-3.5 us of serial work.
inline constexpr std::uint64_t kForkWork = 5000;

/// Indices per chunk for a loop whose body costs about `cost_hint` units
/// of charged work per index: kappa / cost_hint, at least 1.
/// Independent of the thread count by design (see header comment).
inline std::size_t grain_for(std::uint64_t cost_hint = 1) {
  const std::uint64_t g = kForkWork / (cost_hint == 0 ? 1 : cost_hint);
  return g == 0 ? 1 : static_cast<std::size_t>(g);
}

/// Tasks per chunk for a fork of `n` tasks predicted to cost `work` units
/// in total: all n (one chunk, in place) when work <= kappa, otherwise
/// grain_for of the mean task cost, which leaves at least two chunks.
inline std::size_t task_grain(std::size_t n, std::uint64_t work) {
  if (work <= kForkWork || n <= 1) return n == 0 ? 1 : n;
  return grain_for((work + n - 1) / n);
}

namespace detail {

inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  return (n + grain - 1) / grain;
}

}  // namespace detail

/// True when a loop of `n` indices chunked by `grain` runs on the calling
/// thread: one chunk, a one-lane engine, or an enclosing SerialScope.
inline bool runs_in_place(std::size_t n, std::size_t grain) {
  return detail::chunk_count(n, grain) <= 1 || num_threads() <= 1 ||
         serial_scope_depth() > 0;
}

/// body(i) for i in [0, n), chunked by `grain`.
template <class Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (runs_in_place(n, grain)) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t nchunks = detail::chunk_count(n, grain);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

/// Task fan-out: body(i) for i in [0, n), where the n tasks together are
/// predicted to cost `work` units of charged work (the fork's oracle; see
/// task_grain).
template <class Body>
void parallel_tasks(std::size_t n, std::uint64_t work, Body&& body) {
  parallel_for(n, task_grain(n, work), std::forward<Body>(body));
}

/// Unpredicted task fan-out: one chunk per task, for callers that vouch
/// every task is substantial (a batch of whole searches, a service burst).
template <class Body>
void parallel_tasks(std::size_t n, Body&& body) {
  parallel_for(n, 1, std::forward<Body>(body));
}

/// Heterogeneous batch submission: run every job in `jobs` as one engine
/// batch, the submitting thread participating until all retire.  This is
/// the hook the serve layer's batcher uses to push one coalesced service
/// batch -- many unrelated query groups -- into the pool as a single
/// submission instead of one submission per group.  Jobs must be
/// independent; the first exception cancels the batch and rethrows on
/// the caller, so jobs that must not poison their siblings catch
/// internally.
inline void parallel_jobs(std::span<const std::function<void()>> jobs) {
  obs::Span span("exec.jobs");
  span.set_arg("jobs", jobs.size());
  parallel_tasks(jobs.size(), [&](std::size_t i) { jobs[i](); });
}

/// Fold op over eval(0..n-1): per-chunk left fold from `identity`, then a
/// serial left fold of the chunk results in chunk order.  Equals the
/// serial left fold whenever op is associative with identity `identity`.
template <class T, class Eval, class Op>
T parallel_reduce(std::size_t n, std::size_t grain, T identity, Eval&& eval,
                  Op&& op) {
  if (n == 0) return identity;
  if (grain == 0) grain = 1;
  if (runs_in_place(n, grain)) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) acc = op(acc, eval(i));
    return acc;
  }
  const std::size_t nchunks = detail::chunk_count(n, grain);
  // Plain array, not std::vector<T>: with T = bool the vector
  // specialization bit-packs, and concurrent chunks writing adjacent
  // flags would race on the shared word.
  std::unique_ptr<T[]> partial(new T[nchunks]);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, eval(i));
    partial[c] = acc;
  });
  T acc = identity;
  for (std::size_t c = 0; c < nchunks; ++c) acc = op(acc, partial[c]);
  return acc;
}

/// In-place exclusive prefix scan; returns the total.  Three phases:
/// parallel per-chunk reduce, serial scan of the chunk totals, parallel
/// per-chunk rewrite with the chunk offset.
template <class T, class Op>
T parallel_scan_exclusive(std::span<T> xs, std::size_t grain, Op&& op,
                          T identity) {
  const std::size_t n = xs.size();
  if (n == 0) return identity;
  if (grain == 0) grain = 1;
  if (runs_in_place(n, grain)) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) {
      T x = xs[i];
      xs[i] = acc;
      acc = op(acc, x);
    }
    return acc;
  }
  const std::size_t nchunks = detail::chunk_count(n, grain);
  std::vector<T> offset(nchunks, identity);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, xs[i]);
    offset[c] = acc;
  });
  T total = identity;
  for (std::size_t c = 0; c < nchunks; ++c) {
    T x = offset[c];
    offset[c] = total;
    total = op(total, x);
  }
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    T acc = offset[c];
    for (std::size_t i = lo; i < hi; ++i) {
      T x = xs[i];
      xs[i] = acc;
      acc = op(acc, x);
    }
  });
  return total;
}

/// In-place inclusive prefix scan; returns the last element.
template <class T, class Op>
T parallel_scan_inclusive(std::span<T> xs, std::size_t grain, Op&& op) {
  const std::size_t n = xs.size();
  if (n == 0) return T{};
  if (grain == 0) grain = 1;
  if (runs_in_place(n, grain)) {
    for (std::size_t i = 1; i < n; ++i) xs[i] = op(xs[i - 1], xs[i]);
    return xs[n - 1];
  }
  const std::size_t nchunks = detail::chunk_count(n, grain);
  std::vector<T> sums(nchunks);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    T acc = xs[lo];
    for (std::size_t i = lo + 1; i < hi; ++i) acc = op(acc, xs[i]);
    sums[c] = acc;
  });
  for (std::size_t c = 1; c < nchunks; ++c) sums[c] = op(sums[c - 1], sums[c]);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    if (c > 0) xs[lo] = op(sums[c - 1], xs[lo]);
    for (std::size_t i = lo + 1; i < hi; ++i) xs[i] = op(xs[i - 1], xs[i]);
  });
  return xs[n - 1];
}

/// Stable parallel compaction: indices i in [0, n) with keep(i) true, in
/// increasing order.  keep is evaluated twice per index (count + fill);
/// it must be pure.
template <class Keep>
std::vector<std::size_t> parallel_pack(std::size_t n, std::size_t grain,
                                       Keep&& keep) {
  if (n == 0) return {};
  if (grain == 0) grain = 1;
  if (runs_in_place(n, grain)) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n; ++i) {
      if (keep(i)) out.push_back(i);
    }
    return out;
  }
  const std::size_t nchunks = detail::chunk_count(n, grain);
  std::vector<std::size_t> count(nchunks, 0);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    std::size_t k = 0;
    for (std::size_t i = lo; i < hi; ++i) k += keep(i) ? 1 : 0;
    count[c] = k;
  });
  std::size_t total = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t k = count[c];
    count[c] = total;
    total += k;
  }
  std::vector<std::size_t> out(total);
  pool().run_chunks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    std::size_t at = count[c];
    for (std::size_t i = lo; i < hi; ++i) {
      if (keep(i)) out[at++] = i;
    }
  });
  return out;
}

}  // namespace pmonge::exec
