#include "apps/polygon_neighbors.hpp"

#include <algorithm>
#include <cmath>

#include "monge/array.hpp"
#include "par/interval_mask.hpp"
#include "pram/primitives.hpp"
#include "support/check.hpp"
#include "support/series.hpp"

namespace pmonge::apps {

const char* neighbor_kind_name(NeighborKind k) {
  switch (k) {
    case NeighborKind::NearestVisible:
      return "nearest-visible";
    case NeighborKind::NearestInvisible:
      return "nearest-invisible";
    case NeighborKind::FarthestVisible:
      return "farthest-visible";
    case NeighborKind::FarthestInvisible:
      return "farthest-invisible";
  }
  return "?";
}

namespace {

bool wants_visible(NeighborKind k) {
  return k == NeighborKind::NearestVisible ||
         k == NeighborKind::FarthestVisible;
}
bool wants_nearest(NeighborKind k) {
  return k == NeighborKind::NearestVisible ||
         k == NeighborKind::NearestInvisible;
}

/// Vertex-index chains of a convex CCW polygon, split at the bottom and
/// top vertices; both returned in ascending-y traversal order.
struct IndexChains {
  std::vector<std::size_t> right;  // bottom -> top, CCW walk
  std::vector<std::size_t> left;   // bottom -> top, CW walk
};

IndexChains y_chains(const geom::ConvexPolygon& poly) {
  const std::size_t n = poly.size();
  std::size_t bot = 0, top = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (poly[i].y < poly[bot].y ||
        (poly[i].y == poly[bot].y && poly[i].x < poly[bot].x)) {
      bot = i;
    }
    if (poly[i].y > poly[top].y ||
        (poly[i].y == poly[top].y && poly[i].x > poly[top].x)) {
      top = i;
    }
  }
  IndexChains out;
  for (std::size_t i = bot;; i = poly.next(i)) {  // CCW: right side going up
    out.right.push_back(i);
    if (i == top) break;
  }
  for (std::size_t i = bot;; i = poly.prev(i)) {  // CW: left side going up
    out.left.push_back(i);
    if (i == top) break;
  }
  return out;
}

}  // namespace

NeighborResult neighbors_brute(const geom::ConvexPolygon& P,
                               const geom::ConvexPolygon& Q,
                               NeighborKind kind) {
  const std::size_t m = P.size(), n = Q.size();
  NeighborResult res;
  res.neighbor.assign(m, NeighborResult::npos);
  res.distance.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (geom::visible_brute(P, i, Q, j) != wants_visible(kind)) continue;
      const double d = geom::dist(P[i], Q[j]);
      const bool better =
          res.neighbor[i] == NeighborResult::npos ||
          (wants_nearest(kind) ? d < res.distance[i] : d > res.distance[i]);
      if (better) {
        res.neighbor[i] = j;
        res.distance[i] = d;
      }
    }
  }
  return res;
}

NeighborResult neighbors_par(pram::Machine& mach,
                             const geom::ConvexPolygon& P,
                             const geom::ConvexPolygon& Q, NeighborKind kind,
                             std::size_t* fast_blocks,
                             std::size_t* slow_blocks) {
  const std::size_t m = P.size(), n = Q.size();
  const bool vis = wants_visible(kind);
  const bool nearest = wants_nearest(kind);
  if (fast_blocks) *fast_blocks = 0;
  if (slow_blocks) *slow_blocks = 0;

  // Target sets per P-vertex.  A real PRAM derives the arc boundaries
  // from O(lg n) tangent binary searches per vertex (tangent points move
  // monotonically); we charge that and materialize the sets with the
  // O(1) wedge predicate.
  mach.meter().charge(2 * static_cast<std::uint64_t>(
                              std::max(1, ceil_lg(n + 1))),
                      m, 2 * m * static_cast<std::uint64_t>(
                                     std::max(1, ceil_lg(n + 1))));
  std::vector<std::vector<char>> target(m, std::vector<char>(n, 0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      target[i][j] = (geom::visible(P, i, Q, j) == vis) ? 1 : 0;
    }
  }

  const IndexChains pc = y_chains(P);
  const IndexChains qc = y_chains(Q);

  struct Cand {
    double d;
    std::size_t j;
  };
  std::vector<std::vector<Cand>> cand(m);

  auto run_block = [&](const std::vector<std::size_t>& prows,
                       const std::vector<std::size_t>& qcols_asc) {
    // Rows: P chain ascending y.  Cols: Q chain descending y (facing
    // orientation -> inverse-Monge distance block).
    std::vector<std::size_t> qcols(qcols_asc.rbegin(), qcols_asc.rend());
    const std::size_t bm = prows.size(), bn = qcols.size();
    // Per-row target runs within this block's columns.  Visible sets are
    // arcs, so a block sees either one contiguous run or a wrapped
    // prefix+suffix pair; each family goes through its own interval-
    // masked search.  Anything messier falls back to a direct scan.
    std::vector<std::size_t> loA(bm), hiA(bm), loB(bm), hiB(bm);
    bool intervals_ok = true;
    for (std::size_t r = 0; r < bm && intervals_ok; ++r) {
      const auto& trow = target[prows[r]];
      std::vector<std::pair<std::size_t, std::size_t>> runs;
      std::size_t c = 0;
      while (c < bn) {
        if (!trow[qcols[c]]) {
          ++c;
          continue;
        }
        std::size_t e = c;
        while (e < bn && trow[qcols[e]]) ++e;
        runs.emplace_back(c, e);
        c = e;
      }
      auto park = [&](std::vector<std::size_t>& lo,
                      std::vector<std::size_t>& hi) {
        lo[r] = hi[r] = (r ? hi[r - 1] : 0);
      };
      if (runs.empty()) {
        park(loA, hiA);
        park(loB, hiB);
      } else if (runs.size() == 1) {
        // A single run: mask A holds it unless it is a suffix continuing
        // mask B's wrapped family (keeps both endpoint series monotone).
        const bool suffix_like = runs[0].second == bn && runs[0].first > 0 &&
                                 r > 0 && loB[r - 1] > 0;
        if (suffix_like) {
          park(loA, hiA);
          loB[r] = runs[0].first;
          hiB[r] = runs[0].second;
        } else {
          loA[r] = runs[0].first;
          hiA[r] = runs[0].second;
          park(loB, hiB);
        }
      } else if (runs.size() == 2 && runs[0].first == 0 &&
                 runs[1].second == bn) {
        loA[r] = 0;
        hiA[r] = runs[0].second;
        loB[r] = runs[1].first;
        hiB[r] = bn;
      } else {
        intervals_ok = false;
      }
    }
    auto eval = [&](std::size_t r, std::size_t c) {
      return geom::dist(P[prows[r]], Q[qcols[c]]);
    };
    // Certify the block's inverse-Monge structure before using the array
    // searcher (facing chains with extreme y-ranges can violate the
    // quadrangle inequality).  The adjacent-quadruple check is one
    // synchronous step with bm*bn processors on a CRCW machine.
    mach.meter().charge(1, bm * bn);
    bool block_inverse_monge = true;
    for (std::size_t r = 0; r + 1 < bm && block_inverse_monge; ++r) {
      for (std::size_t c = 0; c + 1 < bn; ++c) {
        if (eval(r, c) + eval(r + 1, c + 1) <
            eval(r, c + 1) + eval(r + 1, c) - 1e-9) {
          block_inverse_monge = false;
          break;
        }
      }
    }
    // Each mask family's endpoints move monotonically along the chain --
    // non-decreasing or non-increasing depending on orientation.  The
    // non-decreasing case searches the inverse-Monge block directly; the
    // non-increasing case reverses the row order, which turns the block
    // Monge and the endpoints non-decreasing.
    auto solve_mask = [&](const std::vector<std::size_t>& lo,
                          const std::vector<std::size_t>& hi) {
      bool nondecr = true, nonincr = true;
      for (std::size_t r = 1; r < bm; ++r) {
        if (lo[r] < lo[r - 1] || hi[r] < hi[r - 1]) nondecr = false;
        if (lo[r] > lo[r - 1] || hi[r] > hi[r - 1]) nonincr = false;
      }
      std::vector<par::RowOpt<double>> res;
      // The distance block is inverse-Monge when the chains face each
      // other across the separating strip with overlapping y-ranges; for
      // extreme configurations the quadrangle inequality can fail, in
      // which case the searcher's monotonicity guard throws and this
      // block takes the exact fallback scan instead.
      try {
        if (nondecr) {
          res = par::interval_masked_row_opt<double>(
              mach, bm, bn, lo, hi, eval,
              nearest ? par::MaskedProblem::InverseMongeMinima
                      : par::MaskedProblem::InverseMongeMaxima);
        } else if (nonincr) {
          std::vector<std::size_t> rlo(lo.rbegin(), lo.rend());
          std::vector<std::size_t> rhi(hi.rbegin(), hi.rend());
          auto reval = [&](std::size_t r, std::size_t c) {
            return eval(bm - 1 - r, c);
          };
          auto rres = par::interval_masked_row_opt<double>(
              mach, bm, bn, rlo, rhi, reval,
              nearest ? par::MaskedProblem::MongeMinima
                      : par::MaskedProblem::MongeMaxima);
          res.assign(rres.rbegin(), rres.rend());
        } else {
          return false;
        }
      } catch (const std::invalid_argument&) {
        return false;  // structure violation detected -> fallback
      }
      mach.meter().charge(1, bm);
      for (std::size_t r = 0; r < bm; ++r) {
        if (res[r].col != monge::kNoCol) {
          cand[prows[r]].push_back({res[r].value, qcols[res[r].col]});
        }
      }
      return true;
    };
    // Tentatively solve both families; roll back to the fallback scan if
    // either fails (candidates appended by a successful first family are
    // harmless: they are true distances of kind-satisfying vertices).
    if (intervals_ok && block_inverse_monge && solve_mask(loA, hiA) &&
        solve_mask(loB, hiB)) {
      if (fast_blocks) ++*fast_blocks;
    } else {
      // Degenerate mask: metered direct scan of the block.
      if (slow_blocks) ++*slow_blocks;
      mach.parallel_branches(bm, par::scan_work(bm, bn),
                             [&](std::size_t r, pram::Machine& sub) {
        const auto& trow = target[prows[r]];
        auto res = pram::argopt<double>(
            sub, bn,
            [&](std::size_t c) {
              if (!trow[qcols[c]]) {
                return nearest ? monge::inf<double>() : -monge::inf<double>();
              }
              return eval(r, c);
            },
            [&](double a, double b) { return nearest ? a < b : b < a; });
        if (!monge::is_infinite(std::abs(res.value))) {
          cand[prows[r]].push_back({res.value, qcols[res.index]});
        }
      });
    }
  };

  for (const auto* pchain : {&pc.right, &pc.left}) {
    for (const auto* qchain : {&qc.right, &qc.left}) {
      run_block(*pchain, *qchain);
    }
  }

  NeighborResult res;
  res.neighbor.assign(m, NeighborResult::npos);
  res.distance.assign(m, 0.0);
  std::size_t ncand = 0;
  for (const auto& c : cand) ncand += c.size();
  mach.parallel_branches(m, par::scan_work(1, ncand), [&](std::size_t i,
                                                          pram::Machine& sub) {
    if (cand[i].empty()) return;
    auto best = pram::argopt<double>(
        sub, cand[i].size(), [&](std::size_t t) { return cand[i][t].d; },
        [&](double a, double b) { return nearest ? a < b : b < a; });
    res.neighbor[i] = cand[i][best.index].j;
    res.distance[i] = best.value;
  });
  return res;
}

}  // namespace pmonge::apps
