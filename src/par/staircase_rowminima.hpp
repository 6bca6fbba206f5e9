// Parallel row minima of staircase-Monge arrays (the paper's primary
// contribution: Theorem 2.3 / Corollary 2.4).
//
// The extended abstract sketches a sampling algorithm whose fill-in phase
// partitions the array into feasible Monge and staircase regions using
// ANSV-based "bracketed minima" bookkeeping (Lemma 2.2, Figure 2.2) whose
// full details were deferred to the never-published final version.  This
// library implements the same theorem through an equivalent decomposition
// with a transparent correctness argument:
//
//   Canonical-segment decomposition.  Write each row's finite prefix
//   [0, f_i) as the disjoint union of canonical binary segments -- one
//   segment per set bit of f_i, at most ceil(lg n) of them.  For a fixed
//   canonical segment sigma = [start, start + 2^k), the rows whose
//   decomposition uses sigma are exactly those with f_i in
//   [start + 2^k, start + 2^(k+1)), a contiguous row block because the
//   frontier is non-increasing.  Every (segment x row-block) piece is a
//   *plain Monge* subarray (all entries finite), so the Monge searcher of
//   [AP89a] (par/monge_rowminima.hpp) applies; each row then takes the
//   best of its <= ceil(lg n) segment winners.
//
// Two schedules expose the time/processor trade (Table 1.2):
//   * MaxParallel:    all segments solved concurrently.
//       depth O(lg n) on CRCW (matching Theorem 2.3's time bound) with
//       O((m+n) lg n) processors;
//   * WorkEfficient:  one segment level (segments of equal size) at a
//       time -- levels are column-disjoint and each row appears at most
//       once per level, so O(m+n) processors suffice at depth O(lg^2 n).
// The paper's Lemma 2.2 allocation machinery attains O(lg n) depth *and*
// O(n) processors simultaneously; our two schedules bracket that point
// from both sides, and EXPERIMENTS.md reports both.  Under Brent
// scheduling at the paper's processor counts both schedules reproduce the
// Table 1.2 rows (see bench_table_1_2).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "exec/scratch.hpp"
#include "monge/array.hpp"
#include "par/monge_rowminima.hpp"
#include "pram/machine.hpp"
#include "pram/primitives.hpp"
#include "support/series.hpp"

namespace pmonge::par {

enum class StaircaseSchedule {
  MaxParallel,   // O(lg n) CRCW depth, O((m+n) lg n) processors
  WorkEfficient, // O(lg^2 n) depth, O(m+n) processors
  ColumnSplit,   // recursive halving; O(lg^2 n) depth, O(m+n) processors
};

namespace detail {

/// One canonical piece: segment [col0, col0 + width) solved for the
/// contiguous row block [row0, row1).
struct SegmentJob {
  std::size_t level;  // lg(width)
  std::size_t col0;
  std::size_t width;
  std::size_t row0, row1;
};

/// Enumerate the canonical pieces of a staircase frontier into `jobs`
/// (any vector-like container -- the hot path hands in a scratch vector).
/// Host-side O(m lg n); charged as a scan-based allocation pass (each row
/// flags its <= lg n set bits, a prefix scan compacts jobs), which is
/// O(lg n) depth with m+n processors on any model here.  Jobs come out in
/// ascending level; a row's level-k segment starts at f_i with its low
/// k + 1 bits cleared, right of every higher-level one, so each row's
/// segments come out in strictly decreasing column order (staircase_opt's
/// final pick relies on it).
template <class JobVec>
void segment_jobs_into(pram::Machine& mach, const std::vector<std::size_t>& f,
                       std::size_t n, JobVec& jobs) {
  const std::size_t m = f.size();
  if (m == 0 || n == 0) return;
  const auto lgn = static_cast<std::uint64_t>(std::max(1, ceil_lg(n + 1)));
  mach.meter().charge(2 * lgn + 2, m + n, 4 * (m + n));
  // Frontiers are non-increasing, so rows sharing the same canonical
  // segment are consecutive; sweep rows once per bit level.
  for (std::size_t k = 0; (1ull << k) <= n; ++k) {
    const std::size_t w = std::size_t{1} << k;
    std::size_t i = 0;
    while (i < m) {
      if (!(f[i] & w)) {
        ++i;
        continue;
      }
      const std::size_t col0 = f[i] & ~(2 * w - 1);
      std::size_t j = i;
      while (j < m && (f[j] & w) && (f[j] & ~(2 * w - 1)) == col0) ++j;
      jobs.push_back({k, col0, w, i, j});
      i = j;
    }
  }
}

inline std::vector<SegmentJob> segment_jobs(pram::Machine& mach,
                                            const std::vector<std::size_t>& f,
                                            std::size_t n) {
  std::vector<SegmentJob> jobs;
  segment_jobs_into(mach, f, n, jobs);
  return jobs;
}

/// Column-split divide and conquer -- an independent third algorithm for
/// Theorem 2.3, used for cross-validation and the ablation bench.
/// Recurse on the column range [c0, c1): rows whose frontier exceeds the
/// midpoint form a contiguous prefix (frontiers are non-increasing) whose
/// left half is a plain Monge rectangle (batch-searched) and whose right
/// half recurses; the remaining rows recurse left.  Depth O(lg^2 n)
/// (lg n column levels x lg-depth Monge searches), processors O(m+n):
/// every row belongs to exactly one Monge batch per level.
template <bool Minima, monge::Array2D A>
void staircase_colsplit(pram::Machine& mach,
                        const monge::StaircaseArray<A>& s, std::size_t r0,
                        std::size_t r1, std::size_t c0, std::size_t c1,
                        std::vector<RowOpt<typename A::value_type>>& out) {
  using T = typename A::value_type;
  if (r0 >= r1 || c0 >= c1) return;
  auto better = [&](const RowOpt<T>& a, const RowOpt<T>& b) {
    if (b.col == monge::kNoCol) return true;
    if (a.col == monge::kNoCol) return false;
    if (Minima ? a.value < b.value : b.value < a.value) return true;
    if (Minima ? b.value < a.value : a.value < b.value) return false;
    return a.col <= b.col;
  };
  const std::size_t width = c1 - c0;
  if (width <= 4 || r1 - r0 <= 1) {
    // Direct: each row scans its live prefix of this column range.
    mach.parallel_branches(r1 - r0, scan_work(r1 - r0, width),
                           [&](std::size_t t, pram::Machine& sub) {
      const std::size_t i = r0 + t;
      const std::size_t hi = std::min(c1, s.frontier(i));
      if (hi <= c0) return;
      auto res = pram::argopt<T>(
          sub, hi - c0, [&](std::size_t k) { return s.base()(i, c0 + k); },
          [](const T& x, const T& y) { return Minima ? x < y : y < x; });
      RowOpt<T> cand{res.value, c0 + res.index};
      if (better(cand, out[i])) out[i] = cand;
    });
    return;
  }
  const std::size_t mid = c0 + width / 2;
  // Rows with frontier > mid form a prefix [r0, split).
  std::size_t split = r0;
  while (split < r1 && s.frontier(split) > mid) ++split;
  mach.meter().charge(static_cast<std::uint64_t>(
                          std::max(1, ceil_lg(r1 - r0 + 1))),
                      r1 - r0);  // find the split by parallel search
  // Each column level costs at most one Monge search over the rows.
  const std::uint64_t work =
      rowmin_work(r1 - r0, width) *
      static_cast<std::uint64_t>(std::max(1, ceil_lg(width + 1)));
  mach.parallel_branches(2, work, [&](std::size_t h, pram::Machine& sub) {
    if (h == 0) {
      if (split > r0) {
        {
          // Left half is fully alive for these rows: one Monge batch,
          // into scratch of the thread running this branch...
          exec::ScratchScope branch_scratch;
          monge::SubArray<A> block(s.base(), r0, split - r0, c0, mid - c0);
          auto res = exec::scratch_vector<RowOpt<T>>(split - r0);
          const std::span<RowOpt<T>> rs(res.data(), res.size());
          if (Minima) {
            monge_row_minima_into(sub, block, rs);
          } else {
            monge_row_maxima_into(sub, block, rs);
          }
          sub.meter().charge(1, split - r0);
          for (std::size_t t = 0; t < rs.size(); ++t) {
            RowOpt<T> cand = rs[t];
            if (cand.col != monge::kNoCol) cand.col += c0;
            if (better(cand, out[r0 + t])) out[r0 + t] = cand;
          }
        }
        // ...and their tail recurses right.
        staircase_colsplit<Minima>(sub, s, r0, split, mid, c1, out);
      }
    } else if (split < r1) {
      staircase_colsplit<Minima>(sub, s, split, r1, c0, mid, out);
    }
  });
}

template <bool Minima, monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_opt(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    StaircaseSchedule sched) {
  using T = typename A::value_type;
  const std::size_t m = s.rows(), n = s.cols();
  std::vector<RowOpt<T>> out(
      m, RowOpt<T>{Minima ? monge::inf<T>() : -monge::inf<T>(),
                   monge::kNoCol});
  if (m == 0 || n == 0) return out;

  if (sched == StaircaseSchedule::ColumnSplit) {
    staircase_colsplit<Minima>(mach, s, 0, m, 0, n, out);
    return out;
  }

  // Frame scratch: the job list, the job results, the per-row candidate
  // lists and the per-level index lists are exact call-lifetime
  // bookkeeping -- bump-allocated while no branch runs, rewound on return.
  exec::ScratchScope scratch;
  auto jobs = exec::scratch_vector<SegmentJob>();
  segment_jobs_into(mach, s.frontiers(), n, jobs);
  // Job t writes its rows' results into job_res[offset[t], offset[t+1]).
  // Jobs at different levels can share rows, and under MaxParallel they
  // run concurrently on the host engine -- so each job writes only its
  // own slots, and the candidate lists are assembled serially below in
  // job order (deterministic at every thread count).
  auto offset = exec::scratch_vector<std::size_t>(jobs.size() + 1, 0);
  for (std::size_t t = 0; t < jobs.size(); ++t) {
    offset[t + 1] = offset[t] + (jobs[t].row1 - jobs[t].row0);
  }
  auto job_res = exec::scratch_vector<RowOpt<T>>(offset.back());
  const std::span<RowOpt<T>> results(job_res.data(), job_res.size());
  const auto lgn = static_cast<std::size_t>(std::max(1, ceil_lg(n + 1)));

  auto run_job = [&](std::size_t t, pram::Machine& sub) {
    const SegmentJob& job = jobs[t];
    monge::SubArray<A> block(s.base(), job.row0, job.row1 - job.row0,
                             job.col0, job.width);
    const auto res = results.subspan(offset[t], job.row1 - job.row0);
    if (Minima) {
      monge_row_minima_into(sub, block, res);
    } else {
      monge_row_maxima_into(sub, block, res);
    }
    sub.meter().charge(1, job.row1 - job.row0);
    for (auto& r : res) {
      if (r.col != monge::kNoCol) r.col += job.col0;
    }
  };

  auto job_work = [&](std::size_t t) {
    return rowmin_work(jobs[t].row1 - jobs[t].row0, jobs[t].width);
  };
  if (sched == StaircaseSchedule::MaxParallel) {
    // Claim jobs in descending predicted work, so the largest pieces
    // start first instead of running alone at the end.  Each job still
    // writes its own slot, and the meter merge is order-free.
    auto order = exec::scratch_vector<std::size_t>(jobs.size());
    auto predicted = exec::scratch_vector<std::uint64_t>(jobs.size());
    std::uint64_t work = 0;
    for (std::size_t t = 0; t < jobs.size(); ++t) {
      order[t] = t;
      predicted[t] = job_work(t);
      work += predicted[t];
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const std::uint64_t wa = predicted[a], wb = predicted[b];
      return wa != wb ? wa > wb : a < b;
    });
    mach.parallel_branches(jobs.size(), work, [&](std::size_t t,
                                                  pram::Machine& sub) {
      run_job(order[t], sub);
    });
  } else {
    // Level-phased: segments of one width at a time.  Within a level the
    // segments are column-disjoint and row blocks meet each row once.
    std::size_t done = 0;
    auto level = exec::scratch_vector<std::size_t>();
    for (std::size_t k = 0; done < jobs.size(); ++k) {
      level.clear();
      std::uint64_t work = 0;
      for (std::size_t t = 0; t < jobs.size(); ++t) {
        if (jobs[t].level == k) {
          level.push_back(t);
          work += job_work(t);
        }
      }
      done += level.size();
      if (level.empty()) continue;
      mach.parallel_branches(level.size(), work, [&](std::size_t t,
                                                     pram::Machine& sub) {
        run_job(level[t], sub);
      });
    }
  }

  // Row i's candidates, in job order, are winners[first[i], first[i+1]):
  // a counting sort of the job results by row.  Assembly is host
  // bookkeeping of already-charged job results.
  auto first = exec::scratch_vector<std::size_t>(m + 1, 0);
  for (const SegmentJob& job : jobs) {
    for (std::size_t i = job.row0; i < job.row1; ++i) ++first[i + 1];
  }
  for (std::size_t i = 0; i < m; ++i) first[i + 1] += first[i];
  auto fill = exec::scratch_vector<std::size_t>(m);
  std::copy(first.begin(), first.end() - 1, fill.begin());
  auto winners = exec::scratch_vector<RowOpt<T>>(job_res.size());
  for (std::size_t t = 0; t < jobs.size(); ++t) {
    for (std::size_t i = jobs[t].row0; i < jobs[t].row1; ++i) {
      winners[fill[i]++] = results[offset[t] + (i - jobs[t].row0)];
    }
  }
  const std::span<RowOpt<T>> all_cand(winners.data(), winners.size());

  // Each row's candidates must be taken in column order so ties resolve
  // leftmost; that ordering is charged as lg n steps of one processor
  // group per row over its <= lg n candidates.  On the host it is free:
  // winners arrive in job order, which is ascending level, and a row's
  // lower-level segment lies right of its higher-level ones, so each
  // row's candidates are in strictly decreasing column order and the
  // argopt scans them back to front.
  mach.meter().charge(static_cast<std::uint64_t>(lgn), m,
                      static_cast<std::uint64_t>(m) * lgn);
  mach.parallel_branches(m, scan_work(m, lgn), [&](std::size_t i,
                                                   pram::Machine& sub) {
    const auto cand = all_cand.subspan(first[i], first[i + 1] - first[i]);
    if (cand.empty()) return;  // f_i == 0: row stays {inf, kNoCol}
    const std::size_t last = cand.size() - 1;
    auto r = pram::argopt<T>(
        sub, cand.size(), [&](std::size_t t) { return cand[last - t].value; },
        [](const T& x, const T& y) { return Minima ? x < y : y < x; });
    out[i] = cand[last - r.index];
  });
  return out;
}

}  // namespace detail

/// Theorem 2.3 / Corollary 2.4: leftmost row minima of an m x n
/// staircase-Monge array on the simulated PRAM.  Rows with no finite
/// entry report {inf, kNoCol}.
template <monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_row_minima(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    StaircaseSchedule sched = StaircaseSchedule::MaxParallel) {
  return detail::staircase_opt<true>(mach, s, sched);
}

/// Leftmost row maxima over the finite region of a staircase-Monge array
/// (the "easy direction" the paper attributes to [AKM+87]).
template <monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_row_maxima(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    StaircaseSchedule sched = StaircaseSchedule::MaxParallel) {
  return detail::staircase_opt<false>(mach, s, sched);
}

/// Staircase-*inverse*-Monge variants (Section 1.1 defines them; the
/// rectangle applications consume them).  Negating the base swaps the
/// Monge orientation and min <-> max, so these are thin reductions.
template <monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_inverse_row_minima(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    StaircaseSchedule sched = StaircaseSchedule::MaxParallel) {
  using T = typename A::value_type;
  monge::Negate<A> neg(s.base());
  monge::StaircaseArray<monge::Negate<A>> ns(neg, s.frontiers());
  auto res = detail::staircase_opt<false>(mach, ns, sched);
  for (auto& r : res) {
    r.value = r.col == monge::kNoCol ? monge::inf<T>() : -r.value;
  }
  return res;
}

template <monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_inverse_row_maxima(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    StaircaseSchedule sched = StaircaseSchedule::MaxParallel) {
  using T = typename A::value_type;
  monge::Negate<A> neg(s.base());
  monge::StaircaseArray<monge::Negate<A>> ns(neg, s.frontiers());
  auto res = detail::staircase_opt<true>(mach, ns, sched);
  for (auto& r : res) {
    r.value = r.col == monge::kNoCol ? -monge::inf<T>() : -r.value;
  }
  return res;
}

// ---------------------------------------------------------------------------
// Batched row queries (serve-layer coalescing entry points)
// ---------------------------------------------------------------------------
//
// A row subset of a staircase-Monge array is staircase-Monge (the
// selected frontiers inherit non-increasingness), so many row queries
// against one staircase array coalesce into a single Theorem-2.3
// invocation over the row-selected view.  Results align with `rows`,
// which must be strictly increasing.

namespace detail {

template <bool Minima, monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_rows_entry(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    std::span<const std::size_t> rows, StaircaseSchedule sched) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    PMONGE_REQUIRE(rows[i] < s.rows(), "row query out of range");
    PMONGE_REQUIRE(i == 0 || rows[i - 1] < rows[i],
                   "batched row queries must be strictly increasing");
  }
  monge::RowSelect<A> sel(s.base(),
                          std::vector<std::size_t>(rows.begin(), rows.end()));
  std::vector<std::size_t> frontier;
  frontier.reserve(rows.size());
  for (const std::size_t r : rows) frontier.push_back(s.frontier(r));
  monge::StaircaseArray<monge::RowSelect<A>> sub(sel, std::move(frontier));
  return staircase_opt<Minima>(mach, sub, sched);
}

}  // namespace detail

/// Leftmost row minima of a staircase-Monge array, restricted to `rows`.
template <monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_row_minima_rows(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    std::span<const std::size_t> rows,
    StaircaseSchedule sched = StaircaseSchedule::MaxParallel) {
  return detail::staircase_rows_entry<true>(mach, s, rows, sched);
}

/// Leftmost row maxima over the finite region, restricted to `rows`.
template <monge::Array2D A>
std::vector<RowOpt<typename A::value_type>> staircase_row_maxima_rows(
    pram::Machine& mach, const monge::StaircaseArray<A>& s,
    std::span<const std::size_t> rows,
    StaircaseSchedule sched = StaircaseSchedule::MaxParallel) {
  return detail::staircase_rows_entry<false>(mach, s, rows, sched);
}

}  // namespace pmonge::par
