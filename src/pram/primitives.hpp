// Metered PRAM primitives.
//
// Every primitive executes on the host (producing exactly the result the
// simulated machine would) and charges the machine's meter with the
// textbook parallel depth and work of the corresponding PRAM algorithm:
//
//   parallel_for          1 step, n processors
//   broadcast             1 step (concurrent read is free on CREW/CRCW)
//   reduce / argopt CREW  ceil(lg n) steps, ~2n work (balanced tree)
//   argopt CRCW           O(lglg n) steps, O(n) work per round
//                         (the doubly-logarithmic accelerated-cascading
//                         max-finding of Valiant / Shiloach-Vishkin; the
//                         round schedule is folded into one charge and
//                         executed as one pass)
//   argopt COMBINING      1 step (min/max-combining concurrent write)
//   argopt_each (k x n)   one argopt's steps, k times its work and
//                         processors (k argopts side by side)
//   prefix_scan           2 ceil(lg n) steps, ~4n work (Blelchoch up/down)
//   scatter_write         1 step, with *real* write-conflict detection
//   parallel_merge        ceil(lg n) steps (cross-ranking binary search)
//   merge_sort            ceil(lg n)^2 steps, n lg n work
//   radix_sort            O(bits * lg n) steps (stable bit split via scans)
//   pack                  2 ceil(lg n) + 1 steps (scan + scatter)
//
// Algorithms in src/par never touch arrays except through these, so the
// measured step/work series reported by the benchmarks are honest.
//
// Host execution: every primitive *charges* the simulated machine's cost
// analytically (a pure function of n and the model) and then *executes*
// on the host-parallel engine of src/exec -- data-parallel skeletons over
// a shared thread pool with fixed, thread-count-independent chunking.
// Results and charged costs are therefore identical at every
// PMONGE_THREADS setting; only wall-clock time changes.  Charging always
// happens on the calling thread, never inside an engine task, so one
// meter is never touched from two threads (see docs/cost_model.md).
// Execution need not follow the charged algorithm step by step: where
// the charged schedule's answer is a pure function of the input (the
// unique winner of an argopt, a stable merge), the host computes it the
// cheapest way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "pram/machine.hpp"
#include "support/check.hpp"
#include "support/series.hpp"

namespace pmonge::pram {

inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Result of a parallel argmin/argmax.
template <class T>
struct OptResult {
  T value{};
  std::size_t index = kNoIndex;
};

// ---------------------------------------------------------------------------
// Elementwise parallelism
// ---------------------------------------------------------------------------

/// Execute body(i) for i in [0, n) as one synchronous step with n
/// processors.  Bodies must be independent (the engine runs them
/// concurrently in an unspecified order).
template <class F>
void parallel_for(Machine& m, std::size_t n, F&& body) {
  if (n == 0) return;
  m.meter().charge(1, n);
  exec::parallel_for(n, exec::grain_for(), body);
}

/// Concurrent read of one shared cell by n processors: a single step on
/// any concurrent-read model.
template <class F>
void broadcast(Machine& m, std::size_t n, F&& body) {
  if (n == 0) return;
  m.meter().charge(1, n);
  exec::parallel_for(n, exec::grain_for(), body);
}

// ---------------------------------------------------------------------------
// Reductions and parallel argmin / argmax
// ---------------------------------------------------------------------------

/// Tree reduction of eval(0..n-1) under `op`; CREW cost (lg-depth tree).
/// `op` must be associative with identity `identity`; the engine folds
/// fixed chunks left-to-right, so results match the serial fold exactly
/// at every thread count.
template <class T, class Eval, class Op>
T reduce(Machine& m, std::size_t n, Eval&& eval, Op&& op, T identity) {
  if (n == 0) return identity;
  m.meter().charge(static_cast<std::uint64_t>(ceil_lg(n)),
                   (n + 1) / 2, 2 * n);
  return exec::parallel_reduce(n, exec::grain_for(), identity, eval, op);
}

namespace detail {

/// Leftmost argopt of eval(0..n-1), n >= 1.  One chunk (n <= grain) is a
/// strict-improvement sweep written as selects, so a data-dependent
/// winner costs no branch mispredictions; more fold chunk winners in
/// index order under the strict total order on (value, index).  Both
/// find the same unique least element, so ties resolve to the smallest
/// index either way.
template <class T, class Eval, class Less>
OptResult<T> engine_argopt(std::size_t n, const Eval& eval, const Less& less) {
  const std::size_t grain = exec::grain_for(2);
  if (n <= grain) {
    T bv = eval(0);
    std::size_t bi = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const T v = eval(i);
      const bool better = less(v, bv);
      bv = better ? v : bv;
      bi = better ? i : bi;
    }
    return {bv, bi};
  }
  return exec::parallel_reduce(
      n, grain, OptResult<T>{},
      [&](std::size_t i) {
        return OptResult<T>{eval(i), i};
      },
      [&](const OptResult<T>& a, const OptResult<T>& b) {
        if (b.index == kNoIndex) return a;
        if (a.index == kNoIndex) return b;
        if (less(b.value, a.value)) return b;
        if (less(a.value, b.value)) return a;
        return b.index < a.index ? b : a;
      });
}

}  // namespace detail

/// The charge one argopt of n >= 1 candidates leaves on a fresh meter
/// under `model` (see argopt).  The CRCW doubly-logarithmic round
/// schedule: one load step, then rounds in which candidate set sizes
/// fall as s -> s / g with g = max(2, n / s), reaching 1 in O(lglg n)
/// rounds while every round uses at most ~2n processors (g^2 per group,
/// s/g groups => s*g <= 2n).  Each round is one step of all-pairs
/// loser-marking (COMMON writes of `true` agree) plus one step in which
/// the unique unmarked processor in each group writes the winner.  The
/// rounds fold into one charge: steps and ops add, processors take the
/// max -- exactly what charging them one by one leaves on a meter.
inline CostMeter argopt_cost(Model model, std::size_t n) {
  CostMeter c;
  switch (model) {
    case Model::CREW:
      c.charge(static_cast<std::uint64_t>(ceil_lg(n)), (n + 1) / 2, 2 * n);
      break;
    case Model::CRCW_COMBINING:
      c.charge(1, n);
      break;
    default: {  // COMMON / ARBITRARY / PRIORITY: doubly-logarithmic
      std::uint64_t steps = 1, procs = n, ops = n;  // load candidates
      for (std::size_t s = n; s > 1;) {
        const std::size_t g = std::min(std::max<std::size_t>(2, n / s), s);
        steps += 2;
        procs = std::max<std::uint64_t>(procs, s * g);
        ops += s * g + s;
        s = (s + g - 1) / g;
      }
      c.charge(steps, procs, ops);
      break;
    }
  }
  return c;
}

/// Parallel argmin over eval(0..n-1) with `less`; leftmost winner on ties.
/// Depth depends on the machine model:
///   CREW            ceil(lg n)            (balanced tree)
///   CRCW common/arb/pri   O(lglg n)       (doubly-log cascading)
///   CRCW combining  1                     (min-combining write)
/// Every model executes the same pass (engine_argopt): ordering by
/// (value, index) is a strict total order, so the tree, the tournament
/// rounds and the pass all find its one least element.
template <class T, class Eval, class Less>
OptResult<T> argopt(Machine& m, std::size_t n, Eval&& eval, Less&& less) {
  if (n == 0) return {};
  const CostMeter c = argopt_cost(m.model(), n);
  m.meter().charge(c.time, c.peak_processors, c.work);
  return detail::engine_argopt<T>(n, eval, less);
}

/// k independent argopts of n candidates each, side by side: branch b's
/// leftmost winner over eval(b, 0..n-1) goes to emit(b, OptResult<T>).
/// Charged as their parallel composition -- the time of one argopt, k
/// times its work and k times its processors -- which is exactly what
/// parallel_branches folds from k sub-machines each running argopt, so
/// the uniform fork is charged once instead of k times.  `work` is the
/// fork's prediction (never charged): the branches run as one
/// exec::parallel_tasks fan-out, in place or on the pool exactly as
/// parallel_branches(k, work, ...) would run them.  emit(b, ...) must
/// write only branch b's state.
template <class T, class Eval, class Less, class Emit>
void argopt_each(Machine& m, std::size_t k, std::size_t n, std::uint64_t work,
                 Eval&& eval, Less&& less, Emit&& emit) {
  if (k == 0) return;
  if (n == 0) {  // k empty argopts: no charge, as argopt(m, 0, ...)
    for (std::size_t b = 0; b < k; ++b) emit(b, OptResult<T>{});
    return;
  }
  const CostMeter c = argopt_cost(m.model(), n);
  m.meter().charge(c.time, k * c.peak_processors, k * c.work);
  exec::parallel_tasks(k, work, [&](std::size_t b) {
    emit(b, detail::engine_argopt<T>(
                n, [&](std::size_t i) { return eval(b, i); }, less));
  });
}

/// Parallel minimum (value + leftmost index) of a materialized span.
template <class T>
OptResult<T> min_element_par(Machine& m, std::span<const T> xs) {
  return argopt<T>(
      m, xs.size(), [&](std::size_t i) { return xs[i]; },
      [](const T& a, const T& b) { return a < b; });
}

template <class T>
OptResult<T> max_element_par(Machine& m, std::span<const T> xs) {
  return argopt<T>(
      m, xs.size(), [&](std::size_t i) { return xs[i]; },
      [](const T& a, const T& b) { return b < a; });
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Work-efficient exclusive prefix scan (Blelloch up-sweep/down-sweep):
/// 2 ceil(lg n) steps, ~4n work.  Returns the total as well.  `op` must
/// be associative with identity `identity`.
template <class T, class Op>
T exclusive_scan_par(Machine& m, std::span<T> xs, Op&& op, T identity) {
  const std::size_t n = xs.size();
  if (n == 0) return identity;
  m.meter().charge(2 * static_cast<std::uint64_t>(ceil_lg(n)),
                   (n + 1) / 2, 4 * n);
  return exec::parallel_scan_exclusive(xs, exec::grain_for(), op, identity);
}

/// Inclusive prefix scan; same cost as the exclusive scan.  `op` must be
/// associative.
template <class T, class Op>
T inclusive_scan_par(Machine& m, std::span<T> xs, Op&& op) {
  const std::size_t n = xs.size();
  if (n == 0) return T{};
  m.meter().charge(2 * static_cast<std::uint64_t>(ceil_lg(n)),
                   (n + 1) / 2, 4 * n);
  return exec::parallel_scan_inclusive(xs, exec::grain_for(), op);
}

// ---------------------------------------------------------------------------
// Scatter writes with model enforcement
// ---------------------------------------------------------------------------

template <class T>
struct WriteIntent {
  std::size_t proc;  // issuing processor (decides ARBITRARY/PRIORITY races)
  std::size_t addr;  // destination cell
  T value;
};

/// One synchronous write step: all intents fire simultaneously into
/// `cells`.  Under CREW, two intents for one address throw ModelViolation;
/// under CRCW_COMMON, disagreeing values throw; ARBITRARY and PRIORITY
/// resolve races to the lowest processor id; COMBINING folds values with
/// `combine` (which must be associative and commutative).
template <class T, class Combine>
void scatter_write(Machine& m, std::span<T> cells,
                   std::span<const WriteIntent<T>> intents, Combine&& combine) {
  if (intents.empty()) return;
  m.meter().charge(1, intents.size());
  // Validate addresses on the engine, then detect races with a serial
  // sorted sweep: conflict detection must see the *complete* write set of
  // the step at once, so it runs single-threaded no matter how the
  // intents were produced -- exactness does not depend on PMONGE_THREADS.
  const bool in_range = exec::parallel_reduce(
      intents.size(), exec::grain_for(), true,
      [&](std::size_t i) { return intents[i].addr < cells.size(); },
      [](bool a, bool b) { return a && b; });
  PMONGE_REQUIRE(in_range, "scatter_write out of range");
  // Sorting a copy keeps the public span const.
  std::vector<const WriteIntent<T>*> by_addr(intents.size());
  exec::parallel_for(intents.size(), exec::grain_for(),
                     [&](std::size_t i) { by_addr[i] = &intents[i]; });
  std::sort(by_addr.begin(), by_addr.end(),
            [](const WriteIntent<T>* a, const WriteIntent<T>* b) {
              if (a->addr != b->addr) return a->addr < b->addr;
              return a->proc < b->proc;
            });
  for (std::size_t i = 0; i < by_addr.size();) {
    std::size_t j = i;
    while (j < by_addr.size() && by_addr[j]->addr == by_addr[i]->addr) ++j;
    const std::size_t addr = by_addr[i]->addr;
    if (j - i > 1) {
      switch (m.model()) {
        case Model::CREW:
          throw ModelViolation("CREW write conflict at cell " +
                               std::to_string(addr));
        case Model::CRCW_COMMON:
          for (std::size_t k = i + 1; k < j; ++k) {
            if (!(by_addr[k]->value == by_addr[i]->value)) {
              throw ModelViolation(
                  "CRCW-COMMON disagreeing writes at cell " +
                  std::to_string(addr));
            }
          }
          cells[addr] = by_addr[i]->value;
          break;
        case Model::CRCW_ARBITRARY:
        case Model::CRCW_PRIORITY:
          cells[addr] = by_addr[i]->value;  // lowest proc id wins
          break;
        case Model::CRCW_COMBINING: {
          T acc = by_addr[i]->value;
          for (std::size_t k = i + 1; k < j; ++k)
            acc = combine(acc, by_addr[k]->value);
          cells[addr] = acc;
          break;
        }
      }
    } else {
      cells[addr] = by_addr[i]->value;
    }
    i = j;
  }
}

/// scatter_write with a "last writer would win" combiner that is only legal
/// when no combining is required.
template <class T>
void scatter_write(Machine& m, std::span<T> cells,
                   std::span<const WriteIntent<T>> intents) {
  scatter_write(m, cells, intents, [](const T& a, const T&) { return a; });
}

// ---------------------------------------------------------------------------
// Pack / compaction
// ---------------------------------------------------------------------------

/// Stable compaction: returns the indices i with keep(i) true, in order.
/// Cost: one flag step + exclusive scan + scatter.
template <class Keep>
std::vector<std::size_t> pack_indices(Machine& m, std::size_t n, Keep&& keep) {
  std::vector<std::size_t> flags(n, 0);
  parallel_for(m, n, [&](std::size_t i) { flags[i] = keep(i) ? 1 : 0; });
  const std::size_t total = exclusive_scan_par<std::size_t>(
      m, flags, std::plus<std::size_t>{}, 0);
  std::vector<std::size_t> out(total);
  parallel_for(m, n, [&](std::size_t i) {
    if (keep(i)) out[flags[i]] = i;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Merging and sorting
// ---------------------------------------------------------------------------

/// Merge two sorted sequences by cross-ranking (every element binary
/// searches the other sequence): ceil(lg(|a|+|b|)) steps, (|a|+|b|) procs.
/// Host execution is serial (std::merge): the charged cost models the
/// PRAM; no call site is wall-clock-hot enough to justify an engine path.
template <class T, class Less>
std::vector<T> parallel_merge(Machine& m, std::span<const T> a,
                              std::span<const T> b, Less&& less) {
  const std::size_t n = a.size() + b.size();
  if (n == 0) return {};
  m.meter().charge(static_cast<std::uint64_t>(ceil_lg(n)), n,
                   n * static_cast<std::uint64_t>(std::max(1, ceil_lg(n))));
  std::vector<T> out;
  out.reserve(n);
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             less);
  return out;
}

/// Stable parallel merge sort: ceil(lg n) rounds of parallel merges, so
/// ceil(lg n)^2 steps and n lg n work.  (Cole's O(lg n) merge sort exists;
/// the library charges the simpler bound and the few call sites that need
/// an O(lg n)-depth sort on bounded integer keys use radix_sort_cost.)
template <class T, class Less>
void merge_sort_par(Machine& m, std::vector<T>& xs, Less&& less) {
  const std::size_t n = xs.size();
  if (n <= 1) return;
  const auto lgn = static_cast<std::uint64_t>(ceil_lg(n));
  m.meter().charge(lgn * lgn, n, n * lgn);
  std::stable_sort(xs.begin(), xs.end(), less);
}

/// Stable radix sort of non-negative integer keys bounded by 2^bits:
/// per bit, a stable binary split costs one flag step, one scan and one
/// scatter, so the whole sort is O(bits * lg n) steps with n processors.
/// `key(x)` must be in [0, 2^bits).
template <class T, class Key>
void radix_sort_par(Machine& m, std::vector<T>& xs, Key&& key, int bits) {
  const std::size_t n = xs.size();
  if (n <= 1) return;
  PMONGE_REQUIRE(bits >= 1 && bits <= 62, "radix width out of range");
  const auto lgn = static_cast<std::uint64_t>(std::max(1, ceil_lg(n)));
  m.meter().charge(static_cast<std::uint64_t>(bits) * (2 * lgn + 2), n,
                   static_cast<std::uint64_t>(bits) * 4 * n);
  std::stable_sort(xs.begin(), xs.end(), [&](const T& a, const T& b) {
    return key(a) < key(b);
  });
}

}  // namespace pmonge::pram
