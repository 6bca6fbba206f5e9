// Parallel tube maxima / minima of Monge-composite arrays (Table 1.3).
//
// Given Monge D (p x q) and E (q x r), compute opt_j d[i][j] + e[j][k]
// for every (i, k), ties to the smallest j.  Two strategies:
//
//  * PerSlice (the CREW row, Theta(lg n)):  for fixed k the array
//    F_k[i][j] = d[i][j] + e[j][k] is plain Monge (e[.][k] is a column
//    offset), so the r slices are r independent Monge row-optima problems
//    solved concurrently by par/monge_rowminima.hpp.  Charged depth is the
//    depth of one Monge search: O(lg n) on CREW -- exactly the Table 1.3
//    CREW time -- with O(n^2) processors (the paper trims this to
//    n^2/lg n with a scheduling trick it defers to the final version; we
//    report Brent time at that count instead).
//
//  * SampledDoublyLog (the CRCW row, Theta(lglg n), after [Ata89]):
//    sample every s-th row and s-th column of the output plane and solve
//    the sampled outputs directly with the doubly-logarithmic CRCW argopt
//    over all q middle indices; the monotone theta of the sampled grid
//    brackets the j-range of every remaining output, which is then
//    searched with one more doubly-log argopt.  Charged depth
//    O(lglg n) + O(lglg n) = Theta(lglg n), matching the CRCW row.
//    Processor count is q/s per sampled output plus bracket widths for
//    the fill; on non-adversarial inputs this stays near n^2 (the
//    benches report the measured peak).
//
// Host execution: the fan-outs run concurrently on the src/exec engine.
// Every branch writes its own cells (a PerSlice slice its own run of
// frame scratch, copied into the plane after the join); the fill phase
// only *reads* sampled cells (membership-checked, never re-solved),
// which were fully written by the preceding phase's barrier
// (parallel_branches returns only when all branches retire), so the
// phases never race.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "exec/scratch.hpp"
#include "monge/array.hpp"
#include "monge/composite.hpp"
#include "par/monge_rowminima.hpp"
#include "pram/machine.hpp"
#include "pram/primitives.hpp"
#include "support/series.hpp"

namespace pmonge::par {

using monge::TubeOpt;
using monge::TubePlane;

enum class TubeStrategy {
  PerSlice,          // Theta(lg n) depth (CREW row of Table 1.3)
  SampledDoublyLog,  // Theta(lglg n) depth on CRCW (CRCW row of Table 1.3)
};

namespace detail {

/// Direct argopt over a j-range for one output (i, k).
template <bool Minima, monge::Array2D D, monge::Array2D E>
TubeOpt<typename D::value_type> tube_point(pram::Machine& m, const D& d,
                                           const E& e, std::size_t i,
                                           std::size_t k, std::size_t jlo,
                                           std::size_t jhi) {
  using T = typename D::value_type;
  auto r = pram::argopt<T>(
      m, jhi - jlo + 1,
      [&](std::size_t t) { return d(i, jlo + t) + e(jlo + t, k); },
      [](const T& x, const T& y) { return Minima ? x < y : y < x; });
  return {r.value, jlo + r.index};
}

template <bool Minima, monge::Array2D D, monge::Array2D E>
TubePlane<typename D::value_type> tube_per_slice(pram::Machine& mach,
                                                 const D& d, const E& e) {
  using T = typename D::value_type;
  const std::size_t p = d.rows(), q = d.cols(), r = e.cols();
  TubePlane<T> out{p, r, std::vector<TubeOpt<T>>(p * r)};
  // Slice-major results on this frame's scratch: slice k writes its own
  // p contiguous slots, and the plane is filled after the join, so no two
  // lanes write one cache line of the row-major plane.
  exec::ScratchScope scratch;
  auto slices = exec::scratch_vector<RowOpt<T>>(r * p);
  const std::span<RowOpt<T>> all(slices.data(), slices.size());
  mach.parallel_branches(r, r * rowmin_work(p, q), [&](std::size_t k,
                                                       pram::Machine& sub) {
    auto fk = monge::make_func_array<T>(
        p, q, [&, k](std::size_t i, std::size_t j) {
          return d(i, j) + e(j, k);
        });
    const std::span<RowOpt<T>> rs = all.subspan(k * p, p);
    if (Minima) {
      monge_row_minima_into(sub, fk, rs);
    } else {
      monge_row_maxima_into(sub, fk, rs);
    }
    sub.meter().charge(1, p);
  });
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t k = 0; k < r; ++k) {
      const RowOpt<T>& o = all[k * p + i];
      out.at(i, k) = {o.value, o.col};
    }
  }
  return out;
}

template <bool Minima, monge::Array2D D, monge::Array2D E>
TubePlane<typename D::value_type> tube_sampled(pram::Machine& mach,
                                               const D& d, const E& e) {
  using T = typename D::value_type;
  const std::size_t p = d.rows(), q = d.cols(), r = e.cols();
  TubePlane<T> out{p, r, std::vector<TubeOpt<T>>(p * r)};
  const std::size_t s =
      std::max<std::size_t>(1, pmonge::isqrt(std::max(p, r)));

  // Sampled grid: rows {0, s, 2s, ..., p-1} x cols {0, s, ..., r-1}; the
  // boundary rows/cols are always included so every output is bracketed.
  // Scratch: built before the fan-outs, read-only inside the branches.
  exec::ScratchScope scratch;
  auto sample_axis = [&](std::size_t extent) {
    auto v = exec::scratch_vector<std::size_t>();
    for (std::size_t x = 0; x < extent; x += s) v.push_back(x);
    if (v.back() != extent - 1) v.push_back(extent - 1);
    return v;
  };
  const auto si = sample_axis(p);
  const auto sk = sample_axis(r);

  if (si.size() < 2 || sk.size() < 2) {
    // Degenerate plane: solve every output directly (still doubly-log).
    mach.parallel_branches(p * r, scan_work(p * r, q), [&](std::size_t t,
                                                           pram::Machine& sub) {
      out.at(t / r, t % r) =
          tube_point<Minima>(sub, d, e, t / r, t % r, 0, q - 1);
    });
    return out;
  }

  mach.parallel_branches(si.size() * sk.size(),
                         scan_work(si.size() * sk.size(), q),
                         [&](std::size_t t, pram::Machine& sub) {
    const std::size_t i = si[t / sk.size()];
    const std::size_t k = sk[t % sk.size()];
    out.at(i, k) = tube_point<Minima>(sub, d, e, i, k, 0, q - 1);
  });

  // Membership masks for the fill's "already solved" test.  Stride
  // arithmetic (i % s == aligned) is not enough: the appended boundary
  // row/column is sampled but not stride-aligned, and a fill branch that
  // re-solved such a cell would write it while concurrent branches read
  // it as a bracket corner.
  auto row_sampled = exec::scratch_vector<char>(p, char{0});
  auto col_sampled = exec::scratch_vector<char>(r, char{0});
  for (std::size_t x : si) row_sampled[x] = 1;
  for (std::size_t x : sk) col_sampled[x] = 1;

  // Fill: bracket each remaining output by the thetas of the enclosing
  // sampled grid corners.  Theta is non-decreasing in (i, k) for minima
  // and non-increasing for maxima; take the corner pair accordingly.
  // Monotone thetas cross q middle indices over the ~p/s and ~r/s grid
  // steps, so a bracket spans about 2q/s of them.
  mach.parallel_branches(p * r, scan_work(p * r, 2 * q / s + 1),
                         [&](std::size_t t, pram::Machine& sub) {
    const std::size_t i = t / r;
    const std::size_t k = t % r;
    if (row_sampled[i] && col_sampled[k]) return;  // phase 2 owns this cell
    // Locate the enclosing sampled cell.
    const std::size_t a = std::min((i / s), si.size() - 2);
    const std::size_t b = std::min((k / s), sk.size() - 2);
    const std::size_t jlo_min = out.at(si[a], sk[b]).j;
    const std::size_t jhi_min = out.at(si[a + 1], sk[b + 1]).j;
    std::size_t jlo, jhi;
    if (Minima) {
      jlo = jlo_min;
      jhi = jhi_min;
    } else {
      jlo = jhi_min;  // maxima: theta non-increasing
      jhi = jlo_min;
    }
    PMONGE_ASSERT(jlo <= jhi, "tube bracket inverted");
    out.at(i, k) = tube_point<Minima>(sub, d, e, i, k, jlo, jhi);
  });
  return out;
}

}  // namespace detail

/// Tube minima of the Monge-composite array (D, E); smallest-j ties.
template <monge::Array2D D, monge::Array2D E>
TubePlane<typename D::value_type> tube_minima(
    pram::Machine& mach, const D& d, const E& e,
    TubeStrategy strategy = TubeStrategy::PerSlice) {
  PMONGE_REQUIRE(d.cols() == e.rows(), "composite dimensions mismatch");
  PMONGE_REQUIRE(d.rows() > 0 && d.cols() > 0 && e.cols() > 0,
                 "empty composite array");
  return strategy == TubeStrategy::PerSlice
             ? detail::tube_per_slice<true>(mach, d, e)
             : detail::tube_sampled<true>(mach, d, e);
}

/// Tube maxima of the Monge-composite array (D, E); smallest-j ties
/// (the paper's "minimum third coordinate" rule).
template <monge::Array2D D, monge::Array2D E>
TubePlane<typename D::value_type> tube_maxima(
    pram::Machine& mach, const D& d, const E& e,
    TubeStrategy strategy = TubeStrategy::PerSlice) {
  PMONGE_REQUIRE(d.cols() == e.rows(), "composite dimensions mismatch");
  PMONGE_REQUIRE(d.rows() > 0 && d.cols() > 0 && e.cols() > 0,
                 "empty composite array");
  return strategy == TubeStrategy::PerSlice
             ? detail::tube_per_slice<false>(mach, d, e)
             : detail::tube_sampled<false>(mach, d, e);
}

// ---------------------------------------------------------------------------
// Batched point queries (serve-layer coalescing entry points)
// ---------------------------------------------------------------------------

/// One output cell of the tube plane: opt over j of d[i][j] + e[j][k].
struct TubeQuery {
  std::size_t i = 0;
  std::size_t k = 0;
};

namespace detail {

/// Grouped execution: queries sharing a k live in the same Monge slice
/// F_k[i][j] = d[i][j] + e[j][k], so each distinct k costs one batched
/// row search over its queried rows; distinct slices run as parallel
/// branches.  Results align with `qs` (duplicates allowed, any order).
template <bool Minima, monge::Array2D D, monge::Array2D E>
std::vector<TubeOpt<typename D::value_type>> tube_points_impl(
    pram::Machine& mach, const D& d, const E& e,
    std::span<const TubeQuery> qs) {
  using T = typename D::value_type;
  const std::size_t p = d.rows(), q = d.cols(), r = e.cols();
  for (const TubeQuery& tq : qs) {
    PMONGE_REQUIRE(tq.i < p && tq.k < r, "tube query out of range");
  }
  std::vector<TubeOpt<T>> out(qs.size());
  std::map<std::size_t, std::vector<std::size_t>> by_k;  // k -> query idxs
  for (std::size_t t = 0; t < qs.size(); ++t) by_k[qs[t].k].push_back(t);
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> groups(
      by_k.begin(), by_k.end());
  std::uint64_t work = 0;
  for (const auto& g : groups) work += rowmin_work(g.second.size(), q);
  mach.parallel_branches(groups.size(), work, [&](std::size_t g,
                                                  pram::Machine& sub) {
    const std::size_t k = groups[g].first;
    const std::vector<std::size_t>& members = groups[g].second;
    // Branch-local scratch: this lambda runs on some worker thread, so
    // the row list bumps *that* thread's arena and rewinds at branch end.
    exec::ScratchScope branch_scratch;
    auto rows = exec::scratch_vector<std::size_t>();
    rows.reserve(members.size());
    for (const std::size_t t : members) rows.push_back(qs[t].i);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    auto fk = monge::make_func_array<T>(
        p, q, [&, k](std::size_t i, std::size_t j) {
          return d(i, j) + e(j, k);
        });
    auto res = Minima ? monge_row_minima_rows(sub, fk, rows)
                      : monge_row_maxima_rows(sub, fk, rows);
    for (const std::size_t t : members) {
      const auto it =
          std::lower_bound(rows.begin(), rows.end(), qs[t].i);
      const auto& ro = res[static_cast<std::size_t>(it - rows.begin())];
      out[t] = {ro.value, ro.col};
    }
  });
  return out;
}

}  // namespace detail

/// Batched tube-maxima point queries; each result equals the matching
/// cell of tube_maxima(mach, d, e) (smallest-j ties).
template <monge::Array2D D, monge::Array2D E>
std::vector<TubeOpt<typename D::value_type>> tube_maxima_points(
    pram::Machine& mach, const D& d, const E& e,
    std::span<const TubeQuery> qs) {
  PMONGE_REQUIRE(d.cols() == e.rows(), "composite dimensions mismatch");
  PMONGE_REQUIRE(d.rows() > 0 && d.cols() > 0 && e.cols() > 0,
                 "empty composite array");
  return detail::tube_points_impl<false>(mach, d, e, qs);
}

/// Batched tube-minima point queries.
template <monge::Array2D D, monge::Array2D E>
std::vector<TubeOpt<typename D::value_type>> tube_minima_points(
    pram::Machine& mach, const D& d, const E& e,
    std::span<const TubeQuery> qs) {
  PMONGE_REQUIRE(d.cols() == e.rows(), "composite dimensions mismatch");
  PMONGE_REQUIRE(d.rows() > 0 && d.cols() > 0 && e.cols() > 0,
                 "empty composite array");
  return detail::tube_points_impl<true>(mach, d, e, qs);
}

}  // namespace pmonge::par
