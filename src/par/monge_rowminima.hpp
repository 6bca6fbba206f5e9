// Parallel row minima / maxima of Monge and inverse-Monge arrays on a
// simulated PRAM ([AP89a]; used as the base primitive by Section 2).
//
// Structure (the sqrt-decomposition double recursion):
//   square m x m:  sample every s-th row with s = floor(sqrt(m)); solve the
//                  sampled sqrt(m) x m array (the wide case below); the
//                  leftmost argmins j(1) <= j(2) <= ... bracket the
//                  remaining rows into groups, each group a Monge subarray
//                  of < s rows whose column ranges overlap only at
//                  endpoints; solve all groups recursively in parallel.
//   m > n (Lemma 2.1 Case 1):  sample every ceil(m/n)-th row, solve the
//                  resulting <= n x n array, then the fill-in regions hold
//                  only O(m) candidate entries; search them directly.
//   n > m (Lemma 2.1 Case 2):  split the columns into ceil(n/m) blocks of
//                  <= m columns, solve the square blocks in parallel, and
//                  take each row's best block winner.
//
// Charged depth obeys D(m) = 2 D(sqrt(m)) + O(level), where `level` is
// O(lglg m) on CRCW (doubly-log interval minima) and O(lg m) on CREW
// (tree minima), giving the Table 1.1 shapes O(lg n) and O(lg n lglg n)
// respectively, with O(n) peak processors -- measured, not assumed; the
// benchmarks fit the series.
//
// Implementation note: recursion operates on an explicit row-id vector
// plus a contiguous column range over a single entry evaluator, so the
// compiler sees one instantiation per input array type (nesting SubArray/
// RowSelect view types recursively would blow up template depth).
//
// Host execution: every fan-out below carries the predicted charged work
// of its branches (rowmin_work / scan_work), and the src/exec engine runs
// it in place or on the pool by that prediction alone.  The per-row
// direct scans (the small case, Case 2's pick over block winners, Case
// 1's fill-in) are uniform forks of argopts, so they go through
// pram::argopt_each, which charges the fork once.  Branch bodies write
// only disjoint slots of `out` / `block` (their branch's rows), which is
// the independence the simulated machine already required; `eval` must
// be a pure read.
// Memory: the recursion writes into caller-owned spans and allocates
// nothing on the heap.  A frame's temporaries (sampled positions and
// their results, bracket lists, Case 2's block winners) live on the
// calling thread's bump arena (exec/scratch.hpp), allocated before any
// fan-out and rewound on frame exit; branches on other threads write
// disjoint slots of them, which the frame outlives.  Only the public
// entry points allocate, for the std::vector they return.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/scratch.hpp"
#include "monge/array.hpp"
#include "pram/machine.hpp"
#include "pram/primitives.hpp"
#include "support/series.hpp"

namespace pmonge::par {

using monge::Array2D;
using monge::kNoCol;
using monge::RowOpt;

/// Predicted charged work of a row-minima search over m rows x n columns:
/// Lemma 2.1's O((m+n) lg n) bound with the constant measured on CRCW.
/// Predictions are in units of CRCW charged work whatever the model, as
/// the host executes every model's primitives the same way; they feed
/// the exec fork rule and nothing else.  Cells would mispredict: 16x256
/// and 64x64 both have 4096, but charge 13.6k vs 7.1k work.
inline std::uint64_t rowmin_work(std::size_t m, std::size_t n) {
  return 7 * static_cast<std::uint64_t>(m + n) *
         static_cast<std::uint64_t>(ceil_lg(n + 1));
}

/// Predicted charged work of `rows` direct argopt scans of `width`
/// entries each (a CRCW argopt charges about 7 work per entry).
inline std::uint64_t scan_work(std::size_t rows, std::size_t width) {
  return 7 * static_cast<std::uint64_t>(rows) * width;
}

namespace detail {

/// Direct scans: every row of `rows` over columns [lo, hi], its leftmost
/// (PreferLeft) or rightmost minimum into `out` (aligned with `rows`).
/// One uniform fork of argopts, charged once (pram::argopt_each).
template <bool PreferLeft, class T, class EvalF>
void scan_rows(pram::Machine& m, const EvalF& eval,
               std::span<const std::size_t> rows, std::size_t lo,
               std::size_t hi, std::span<RowOpt<T>> out) {
  const std::size_t width = hi - lo + 1;
  pram::argopt_each<T>(
      m, rows.size(), width, scan_work(rows.size(), width),
      [&](std::size_t i, std::size_t t) {
        return eval(rows[i], PreferLeft ? lo + t : hi - t);
      },
      [](const T& x, const T& y) { return x < y; },
      [&](std::size_t i, const pram::OptResult<T>& r) {
        out[i] = {r.value, PreferLeft ? lo + r.index : hi - r.index};
      });
}

/// Core recursion: leftmost (PreferLeft) or rightmost row minima of the
/// Monge array eval restricted to `rows` x [clo, chi], written into
/// `out` (aligned with `rows`); column indices are global.
template <bool PreferLeft, class T, class EvalF>
void rowmin_rec(pram::Machine& mach, const EvalF& eval,
                std::span<const std::size_t> rows, std::size_t clo,
                std::size_t chi, std::span<RowOpt<T>> out) {
  const std::size_t m = rows.size();
  if (m == 0) return;
  const std::size_t n = chi - clo + 1;

  if (m <= 4 || n <= 4 || m * n <= 64) {
    scan_rows<PreferLeft, T>(mach, eval, rows, clo, chi, out);
    return;
  }

  // Frame scratch, allocated before any fan-out and rewound on return.
  // Branches read it, and write only their own slots of it.
  exec::ScratchScope scratch;

  if (n > m) {
    // Lemma 2.1 Case 2: column blocks of <= m columns solved in parallel
    // (block b's winners in block[b*m, b*m + m)), then per-row argopt
    // over block winners (ordered so index ties give the right tie
    // policy on the global column).
    const std::size_t nb = (n + m - 1) / m;
    auto block = exec::scratch_vector<RowOpt<T>>(nb * m);
    const std::span<RowOpt<T>> blocks(block.data(), block.size());
    mach.parallel_branches(nb, nb * rowmin_work(m, m), [&](std::size_t b,
                                                           pram::Machine& sub) {
      const std::size_t lo = clo + b * m;
      const std::size_t hi = std::min(chi, lo + m - 1);
      rowmin_rec<PreferLeft, T>(sub, eval, rows, lo, hi,
                                blocks.subspan(b * m, m));
    });
    auto at = [&](std::size_t i, std::size_t b) -> const RowOpt<T>& {
      return blocks[(PreferLeft ? b : nb - 1 - b) * m + i];
    };
    pram::argopt_each<T>(
        mach, m, nb, scan_work(m, nb),
        [&](std::size_t i, std::size_t b) { return at(i, b).value; },
        [](const T& x, const T& y) { return x < y; },
        [&](std::size_t i, const pram::OptResult<T>& r) {
          out[i] = at(i, r.index);
        });
    return;
  }

  // Sample stride: sqrt for squares, ceil(m/n) when m > n (Case 1, whose
  // fill-in is small enough to search directly).
  const bool recurse_groups = (m <= n);
  const std::size_t stride =
      recurse_groups ? std::max<std::size_t>(2, pmonge::isqrt(m))
                     : (m + n - 1) / n;

  auto sampled_pos = exec::scratch_vector<std::size_t>();
  sampled_pos.reserve(m / stride + 1);
  for (std::size_t p = stride - 1; p < m; p += stride) sampled_pos.push_back(p);
  if (sampled_pos.empty()) sampled_pos.push_back(m - 1);
  auto sampled_rows = exec::scratch_vector<std::size_t>(sampled_pos.size());
  for (std::size_t t = 0; t < sampled_pos.size(); ++t) {
    sampled_rows[t] = rows[sampled_pos[t]];
  }
  auto sub = exec::scratch_vector<RowOpt<T>>(sampled_pos.size());
  rowmin_rec<PreferLeft, T>(mach, eval, sampled_rows, clo, chi,
                            std::span<RowOpt<T>>(sub.data(), sub.size()));
  mach.meter().charge(1, sub.size());
  for (std::size_t t = 0; t < sampled_pos.size(); ++t) {
    out[sampled_pos[t]] = sub[t];
  }

  // Fill-in groups between consecutive sampled positions; argopt
  // monotonicity brackets each group's columns (non-decreasing for both
  // tie policies on this orientation).
  struct Bracket {
    std::size_t p0, p1;  // positions [p0, p1) within `rows`
    std::size_t lo, hi;  // global column bracket
  };
  auto groups = exec::scratch_vector<Bracket>();
  groups.reserve(sampled_pos.size() + 1);
  std::uint64_t groups_work = 0;
  std::size_t prev_pos = 0;
  std::size_t prev_col = clo;
  for (std::size_t t = 0; t <= sampled_pos.size(); ++t) {
    const std::size_t next_pos =
        t < sampled_pos.size() ? sampled_pos[t] : m;
    const std::size_t next_col = t < sampled_pos.size() ? sub[t].col : chi;
    // Monotone argopt positions are the load-bearing Monge consequence;
    // an inversion means the caller's array violates its claimed
    // property -- fail loudly instead of searching a bogus bracket.
    PMONGE_REQUIRE(next_col >= prev_col,
                   "argopt positions not monotone: input array is not "
                   "Monge/inverse-Monge as claimed");
    if (next_pos > prev_pos) {
      groups.push_back({prev_pos, next_pos, prev_col, next_col});
      const std::size_t gm = next_pos - prev_pos;
      const std::size_t gn = next_col - prev_col + 1;
      groups_work += recurse_groups ? rowmin_work(gm, gn) : scan_work(gm, gn);
    }
    prev_pos = next_pos + 1;
    prev_col = next_col;
  }

  mach.parallel_branches(groups.size(), groups_work, [&](std::size_t g,
                                                         pram::Machine& gm) {
    const Bracket& b = groups[g];
    const auto grows = rows.subspan(b.p0, b.p1 - b.p0);
    const auto gout = out.subspan(b.p0, b.p1 - b.p0);
    if (recurse_groups) {
      rowmin_rec<PreferLeft, T>(gm, eval, grows, b.lo, b.hi, gout);
      gm.meter().charge(1, grows.size());
    } else {
      scan_rows<PreferLeft, T>(gm, eval, grows, b.lo, b.hi, gout);
    }
  });
}

/// Row minima of the m x n array `eval` into `out` (size m); rows of an
/// empty array report {inf, kNoCol}.
template <bool PreferLeft, class T, class EvalF>
void rowmin_entry(pram::Machine& mach, std::size_t m, std::size_t n,
                  const EvalF& eval, std::span<RowOpt<T>> out) {
  if (m == 0 || n == 0) {
    std::fill(out.begin(), out.end(), RowOpt<T>{monge::inf<T>(), kNoCol});
    return;
  }
  exec::ScratchScope scratch;  // outlives the recursion; rows is read-only
  auto rows = exec::scratch_vector<std::size_t>(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = i;
  rowmin_rec<PreferLeft, T>(
      mach, eval, std::span<const std::size_t>(rows.data(), rows.size()), 0,
      n - 1, out);
}

/// Batched entry: same recursion restricted to an explicit strictly-
/// increasing row subset (the serve layer's coalescing hook).  Results
/// align with `rows`; each equals what a one-row query would return.
template <bool PreferLeft, class T, class EvalF>
std::vector<RowOpt<T>> rowmin_rows_entry(pram::Machine& mach,
                                         std::size_t total_rows,
                                         std::size_t n,
                                         std::span<const std::size_t> rows,
                                         const EvalF& eval) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    PMONGE_REQUIRE(rows[i] < total_rows, "row query out of range");
    PMONGE_REQUIRE(i == 0 || rows[i - 1] < rows[i],
                   "batched row queries must be strictly increasing");
  }
  std::vector<RowOpt<T>> out(rows.size(),
                             RowOpt<T>{monge::inf<T>(), kNoCol});
  if (!rows.empty() && n > 0) {
    rowmin_rec<PreferLeft, T>(mach, eval, rows, 0, n - 1,
                              std::span<RowOpt<T>>(out));
  }
  return out;
}

/// Leftmost row minima of a Monge array into `out` (size a.rows()): the
/// caller-owned form of monge_row_minima, for kernels that search many
/// subarrays into one result buffer.
template <Array2D A>
void monge_row_minima_into(pram::Machine& mach, const A& a,
                           std::span<RowOpt<typename A::value_type>> out) {
  using T = typename A::value_type;
  auto eval = [&a](std::size_t i, std::size_t j) { return a(i, j); };
  rowmin_entry<true, T>(mach, a.rows(), a.cols(), eval, out);
}

/// Leftmost row maxima of a Monge array into `out` (size a.rows()), via
/// the negate + reverse-columns reduction with a rightmost-tie core.
template <Array2D A>
void monge_row_maxima_into(pram::Machine& mach, const A& a,
                           std::span<RowOpt<typename A::value_type>> out) {
  using T = typename A::value_type;
  const std::size_t n = a.cols();
  auto eval = [&a, n](std::size_t i, std::size_t j) {
    return -a(i, n - 1 - j);
  };
  rowmin_entry<false, T>(mach, a.rows(), n, eval, out);
  for (auto& r : out) {
    r = {-r.value, r.col == kNoCol ? kNoCol : n - 1 - r.col};
  }
}

}  // namespace detail

/// Leftmost row minima of a Monge array on the simulated PRAM whose model
/// `mach` carries.  Charged depth: O(lg n) on CRCW models; O(lg n lglg n)
/// under Brent scheduling at n/lglg n processors on CREW.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> monge_row_minima(
    pram::Machine& mach, const A& a) {
  std::vector<RowOpt<typename A::value_type>> out(a.rows());
  detail::monge_row_minima_into(mach, a, std::span(out));
  return out;
}

/// Leftmost row maxima of a Monge array (Table 1.1's problem), via the
/// negate + reverse-columns reduction with a rightmost-tie core.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> monge_row_maxima(
    pram::Machine& mach, const A& a) {
  std::vector<RowOpt<typename A::value_type>> out(a.rows());
  detail::monge_row_maxima_into(mach, a, std::span(out));
  return out;
}

/// Leftmost row maxima of an inverse-Monge array (e.g. the convex-polygon
/// distance arrays of Figure 1.1).
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> inverse_monge_row_maxima(
    pram::Machine& mach, const A& a) {
  using T = typename A::value_type;
  auto eval = [&a](std::size_t i, std::size_t j) { return -a(i, j); };
  std::vector<RowOpt<T>> mins(a.rows());
  detail::rowmin_entry<true, T>(mach, a.rows(), a.cols(), eval,
                                std::span(mins));
  for (auto& r : mins) r.value = -r.value;
  return mins;
}

/// Leftmost row minima of an inverse-Monge array.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> inverse_monge_row_minima(
    pram::Machine& mach, const A& a) {
  using T = typename A::value_type;
  const std::size_t n = a.cols();
  auto eval = [&a, n](std::size_t i, std::size_t j) {
    return a(i, n - 1 - j);
  };
  std::vector<RowOpt<T>> mins(a.rows());
  detail::rowmin_entry<false, T>(mach, a.rows(), n, eval, std::span(mins));
  for (auto& r : mins) {
    if (r.col != kNoCol) r.col = n - 1 - r.col;
  }
  return mins;
}

// ---------------------------------------------------------------------------
// Batched row queries (serve-layer coalescing entry points)
// ---------------------------------------------------------------------------
//
// Many independent "row r of array A" queries against the same array are
// one invocation of the recursion restricted to those rows -- a Monge
// array stays Monge under any row subset, so the sampled/bracketed
// decomposition applies unchanged.  Each returned RowOpt is exactly what
// the corresponding single-row query returns (row optima are per-row
// facts; the batch only changes how the search amortizes), which is what
// makes service responses independent of batching.  `rows` must be
// strictly increasing (the monotone-argmin bracketing needs row order).

/// Leftmost row minima of a Monge array, restricted to `rows`.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> monge_row_minima_rows(
    pram::Machine& mach, const A& a, std::span<const std::size_t> rows) {
  using T = typename A::value_type;
  auto eval = [&a](std::size_t i, std::size_t j) { return a(i, j); };
  return detail::rowmin_rows_entry<true, T>(mach, a.rows(), a.cols(), rows,
                                            eval);
}

/// Leftmost row maxima of a Monge array, restricted to `rows`.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> monge_row_maxima_rows(
    pram::Machine& mach, const A& a, std::span<const std::size_t> rows) {
  using T = typename A::value_type;
  const std::size_t n = a.cols();
  auto eval = [&a, n](std::size_t i, std::size_t j) {
    return -a(i, n - 1 - j);
  };
  auto res = detail::rowmin_rows_entry<false, T>(mach, a.rows(), n, rows,
                                                 eval);
  for (auto& r : res) {
    r = {-r.value, r.col == kNoCol ? kNoCol : n - 1 - r.col};
  }
  return res;
}

/// Leftmost row maxima of an inverse-Monge array, restricted to `rows`.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> inverse_monge_row_maxima_rows(
    pram::Machine& mach, const A& a, std::span<const std::size_t> rows) {
  using T = typename A::value_type;
  auto eval = [&a](std::size_t i, std::size_t j) { return -a(i, j); };
  auto res = detail::rowmin_rows_entry<true, T>(mach, a.rows(), a.cols(),
                                                rows, eval);
  for (auto& r : res) r.value = -r.value;
  return res;
}

/// Leftmost row minima of an inverse-Monge array, restricted to `rows`.
template <Array2D A>
std::vector<RowOpt<typename A::value_type>> inverse_monge_row_minima_rows(
    pram::Machine& mach, const A& a, std::span<const std::size_t> rows) {
  using T = typename A::value_type;
  const std::size_t n = a.cols();
  auto eval = [&a, n](std::size_t i, std::size_t j) {
    return a(i, n - 1 - j);
  };
  auto res = detail::rowmin_rows_entry<false, T>(mach, a.rows(), n, rows,
                                                 eval);
  for (auto& r : res) {
    if (r.col != kNoCol) r.col = n - 1 - r.col;
  }
  return res;
}

}  // namespace pmonge::par
