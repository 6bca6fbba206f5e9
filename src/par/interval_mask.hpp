// Row optima of an implicit array under a per-row *interval* mask.
//
// The applications in Section 1.3 repeatedly face arrays whose valid
// entries form an interval [lo_i, hi_i) per row with both endpoint
// sequences monotone (visible / invisible arcs of a convex polygon,
// dominance-staircase validity in the rectangle problems).  Such a mask
// is the two-sided generalization of the staircase frontier, and the same
// canonical-segment decomposition applies: tile each row's interval with
// its O(lg n) maximal aligned binary segments; the rows tiled by a given
// segment sigma form (prefix by lo) \cap (suffix by hi) minus the rows
// where sigma's parent already fits -- at most two contiguous row blocks.
// Every (segment x block) piece is a fully-valid Monge or inverse-Monge
// subarray searched by par/monge_rowminima.hpp; each row then argopts
// over its O(lg n) piece winners.  Charged depth O(lg n) on CRCW with
// O((m+n) lg n) processors, like the staircase searcher it generalizes.
#pragma once

#include <span>
#include <vector>

#include "par/monge_rowminima.hpp"
#include "pram/machine.hpp"
#include "pram/primitives.hpp"
#include "support/series.hpp"

namespace pmonge::par {

enum class MaskedProblem {
  MongeMinima,         // base array Monge, want row minima
  MongeMaxima,         // base array Monge, want row maxima
  InverseMongeMinima,  // base array inverse-Monge, want row minima
  InverseMongeMaxima,  // base array inverse-Monge, want row maxima
};

/// Row optima of the m x n implicit array `eval` restricted to
/// [lo[i], hi[i]) per row.  Requires lo and hi monotone non-decreasing
/// (PMONGE_REQUIRE'd) and lo[i] <= hi[i] <= n.  Rows with empty intervals
/// report {+-inf, kNoCol}.
template <class T, class EvalF>
std::vector<RowOpt<T>> interval_masked_row_opt(
    pram::Machine& mach, std::size_t m, std::size_t n,
    std::span<const std::size_t> lo, std::span<const std::size_t> hi,
    const EvalF& eval, MaskedProblem kind) {
  PMONGE_REQUIRE(lo.size() == m && hi.size() == m, "mask arity mismatch");
  const bool minima = kind == MaskedProblem::MongeMinima ||
                      kind == MaskedProblem::InverseMongeMinima;
  std::vector<RowOpt<T>> out(
      m, RowOpt<T>{minima ? monge::inf<T>() : -monge::inf<T>(), kNoCol});
  if (m == 0 || n == 0) return out;
  for (std::size_t i = 0; i < m; ++i) {
    PMONGE_REQUIRE(lo[i] <= hi[i] && hi[i] <= n, "bad mask interval");
    if (i) {
      PMONGE_REQUIRE(lo[i - 1] <= lo[i] && hi[i - 1] <= hi[i],
                     "mask endpoints must be monotone");
    }
  }

  // Charged allocation pass (flags + scans), as in the staircase case.
  const auto lgn = static_cast<std::uint64_t>(std::max(1, ceil_lg(n + 1)));
  mach.meter().charge(2 * lgn + 2, m + n, 4 * (m + n));

  struct Job {
    std::size_t col0, width, r0, r1;
  };
  std::vector<Job> jobs;

  // first row index with hi[i] >= x (suffix start)
  auto suffix_from = [&](std::size_t x) {
    std::size_t a = 0, b = m;
    while (a < b) {
      const std::size_t mid = (a + b) / 2;
      if (hi[mid] >= x) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return a;
  };
  // one past the last row index with lo[i] <= x (prefix end)
  auto prefix_upto = [&](std::size_t x) {
    std::size_t a = 0, b = m;
    while (a < b) {
      const std::size_t mid = (a + b) / 2;
      if (lo[mid] <= x) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    return a;
  };
  // rows whose interval contains [start, start + w)
  auto contain_range = [&](std::size_t start,
                           std::size_t w) -> std::pair<std::size_t, std::size_t> {
    const std::size_t r0 = suffix_from(start + w);
    const std::size_t r1 = prefix_upto(start);
    return {r0, std::max(r0, r1)};
  };

  const std::size_t ncap = pmonge::next_pow2(n);
  for (std::size_t w = 1; w <= ncap; w *= 2) {
    for (std::size_t start = 0; start + w <= n; start += w) {
      const auto [r0, r1] = contain_range(start, w);
      if (r0 >= r1) continue;
      // Maximality: subtract rows where the parent segment also fits.
      const std::size_t pstart = start - (start % (2 * w));
      std::pair<std::size_t, std::size_t> pr{0, 0};
      if (pstart + 2 * w <= n) pr = contain_range(pstart, 2 * w);
      // Parent rows form a contiguous sub-range of [r0, r1); keep the
      // (at most two) leftover pieces.
      const std::size_t p0 = std::clamp(pr.first, r0, r1);
      const std::size_t p1 = std::clamp(pr.second, r0, r1);
      if (r0 < p0) jobs.push_back({start, w, r0, p0});
      if (p1 < r1) jobs.push_back({start, w, p1, r1});
      if (p0 >= p1) continue;  // no parent overlap handled above
    }
  }

  // Jobs of different segment widths can cover the same row and run
  // concurrently on the host engine, so each job fills a private result
  // slot; rows' candidate lists are assembled serially afterwards (in job
  // order, deterministic at every thread count).
  std::vector<std::vector<RowOpt<T>>> job_res(jobs.size());
  std::uint64_t jobs_work = 0;
  for (const Job& job : jobs) {
    jobs_work += rowmin_work(job.r1 - job.r0, job.width);
  }
  mach.parallel_branches(jobs.size(), jobs_work, [&](std::size_t t,
                                                     pram::Machine& sub) {
    const Job& job = jobs[t];
    auto block = monge::make_func_array<T>(
        job.r1 - job.r0, job.width,
        [&, job](std::size_t i, std::size_t j) {
          return eval(job.r0 + i, job.col0 + j);
        });
    std::vector<RowOpt<T>> res;
    switch (kind) {
      case MaskedProblem::MongeMinima:
        res = monge_row_minima(sub, block);
        break;
      case MaskedProblem::MongeMaxima:
        res = monge_row_maxima(sub, block);
        break;
      case MaskedProblem::InverseMongeMinima:
        res = inverse_monge_row_minima(sub, block);
        break;
      case MaskedProblem::InverseMongeMaxima:
        res = inverse_monge_row_maxima(sub, block);
        break;
    }
    sub.meter().charge(1, res.size());
    for (auto& r : res) {
      if (r.col != kNoCol) r.col += job.col0;
    }
    job_res[t] = std::move(res);
  });

  std::vector<std::vector<RowOpt<T>>> winners(m);
  for (std::size_t t = 0; t < jobs.size(); ++t) {
    for (std::size_t i = 0; i < job_res[t].size(); ++i) {
      winners[jobs[t].r0 + i].push_back(job_res[t][i]);
    }
  }

  const auto lgcand = static_cast<std::uint64_t>(std::max(1, ceil_lg(n + 1)));
  mach.meter().charge(lgcand, m, static_cast<std::uint64_t>(m) * lgcand);
  mach.parallel_branches(m, scan_work(m, lgcand), [&](std::size_t i,
                                                      pram::Machine& sub) {
    auto& cand = winners[i];
    if (cand.empty()) return;
    std::sort(cand.begin(), cand.end(),
              [](const RowOpt<T>& a, const RowOpt<T>& b) {
                return a.col < b.col;
              });
    auto r = pram::argopt<T>(
        sub, cand.size(), [&](std::size_t t) { return cand[t].value; },
        [&](const T& x, const T& y) { return minima ? x < y : y < x; });
    out[i] = cand[r.index];
  });
  return out;
}

}  // namespace pmonge::par
