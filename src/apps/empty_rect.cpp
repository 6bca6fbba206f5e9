#include "apps/empty_rect.hpp"

#include <algorithm>
#include <cmath>

#include "par/monge_rowminima.hpp"
#include "pram/ansv.hpp"
#include "pram/primitives.hpp"
#include "support/check.hpp"
#include "support/series.hpp"

namespace pmonge::apps {

namespace {

Rect better(const Rect& a, const Rect& b) {
  return a.area() >= b.area() ? a : b;
}

}  // namespace

bool rect_is_empty(const Rect& r, const std::vector<DPoint>& pts,
                   const Rect& bound) {
  if (r.x1 < bound.x1 - 1e-9 || r.x2 > bound.x2 + 1e-9 ||
      r.y1 < bound.y1 - 1e-9 || r.y2 > bound.y2 + 1e-9) {
    return false;
  }
  for (const auto& p : pts) {
    if (p.x > r.x1 + 1e-12 && p.x < r.x2 - 1e-12 && p.y > r.y1 + 1e-12 &&
        p.y < r.y2 - 1e-12) {
      return false;
    }
  }
  return true;
}

Rect largest_empty_rect_brute(const std::vector<DPoint>& pts,
                              const Rect& bound) {
  std::vector<double> xs = {bound.x1, bound.x2};
  for (const auto& p : pts) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  Rect best{bound.x1, bound.y1, bound.x1, bound.y1};  // zero area
  for (std::size_t a = 0; a < xs.size(); ++a) {
    for (std::size_t b = a + 1; b < xs.size(); ++b) {
      const double x1 = xs[a], x2 = xs[b];
      std::vector<double> ys = {bound.y1, bound.y2};
      for (const auto& p : pts) {
        if (p.x > x1 && p.x < x2) ys.push_back(p.y);
      }
      std::sort(ys.begin(), ys.end());
      for (std::size_t k = 0; k + 1 < ys.size(); ++k) {
        const Rect cand{x1, ys[k], x2, ys[k + 1]};
        if (cand.area() > best.area()) best = cand;
      }
    }
  }
  return best;
}

namespace {

struct Window {
  double b, t, reach;
};

/// Windows of one side: maximal y-gaps of {pts} as the edge moves away
/// from the dividing line.  `toward_wall` is the slab wall the reach
/// defaults to; `left_side` picks which x-order kills windows.  Built
/// from the ANSV of (-x) in y-order: the enclosing window of point q is
/// delimited by its nearest y-neighbors with larger x.
std::vector<Window> side_windows(pram::Machine& mach,
                                 const std::vector<DPoint>& side, double ylo,
                                 double yhi, double wall, bool left_side) {
  std::vector<DPoint> s = side;
  std::sort(s.begin(), s.end(),
            [](const DPoint& a, const DPoint& b) { return a.y < b.y; });
  const std::size_t k = s.size();
  std::vector<Window> out;
  if (k == 0) {
    out.push_back({ylo, yhi, wall});
    return out;
  }
  // ANSV on keys -x (left side: larger x is "closer to the line"; right
  // side symmetric) -- quantized through a rank so the int64 ANSV
  // primitive applies exactly.
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return left_side ? s[a].x < s[b].x : s[a].x > s[b].x;
  });
  std::vector<std::int64_t> key(k);  // smaller key = closer to the line
  for (std::size_t r = 0; r < k; ++r) {
    key[order[k - 1 - r]] = static_cast<std::int64_t>(r);
  }
  const auto nsv = pram::ansv(mach, key);
  // Point q's enclosing window: delimited by nearest y-neighbors with
  // smaller key (larger |x|-closeness), reach = q's own x.
  for (std::size_t q = 0; q < k; ++q) {
    const double b = nsv.left[q] == pram::AnsvResult::kNone
                         ? ylo
                         : s[nsv.left[q]].y;
    const double t = nsv.right[q] == pram::AnsvResult::kNone
                         ? yhi
                         : s[nsv.right[q]].y;
    out.push_back({b, t, s[q].x});
  }
  // Still-alive windows: the gaps of the full point set, reaching the
  // wall.
  out.push_back({ylo, s[0].y, wall});
  for (std::size_t q = 0; q + 1 < k; ++q) {
    out.push_back({s[q].y, s[q + 1].y, wall});
  }
  out.push_back({s[k - 1].y, yhi, wall});
  mach.meter().charge(1, k + 1);
  return out;
}

/// Best crossing rectangle: doubly-log argmax over all window pairs.
Rect best_crossing(pram::Machine& mach, const std::vector<DPoint>& L,
                   const std::vector<DPoint>& R, const Rect& slab) {
  const auto wl = side_windows(mach, L, slab.y1, slab.y2, slab.x1, true);
  const auto wr = side_windows(mach, R, slab.y1, slab.y2, slab.x2, false);
  const std::size_t total = wl.size() * wr.size();
  auto value = [&](std::size_t t) {
    const Window& a = wl[t / wr.size()];
    const Window& c = wr[t % wr.size()];
    const double h = std::min(a.t, c.t) - std::max(a.b, c.b);
    const double w = c.reach - a.reach;
    return (h > 0 && w > 0) ? h * w : 0.0;
  };
  const auto best = pram::argopt<double>(
      mach, total, value, [](double x, double y) { return y < x; });
  const Window& a = wl[best.index / wr.size()];
  const Window& c = wr[best.index % wr.size()];
  if (best.value <= 0) return {slab.x1, slab.y1, slab.x1, slab.y1};
  return {a.reach, std::max(a.b, c.b), c.reach, std::min(a.t, c.t)};
}

/// Predicted charged work of rec over k points: the crossing argopt scans
/// about (k+1)^2 window pairs, and the halving recursion doubles that.
std::uint64_t rec_work(std::size_t k) {
  return 2 * par::scan_work(k + 1, k + 1);
}

Rect rec(pram::Machine& mach, std::vector<DPoint>& pts, std::size_t lo,
         std::size_t hi, const Rect& slab) {
  // pts[lo, hi) sorted by x, all strictly inside the slab's x-range.
  if (hi - lo <= 2) {
    std::vector<DPoint> sub(pts.begin() + static_cast<std::ptrdiff_t>(lo),
                            pts.begin() + static_cast<std::ptrdiff_t>(hi));
    mach.meter().charge(2, hi - lo + 1);
    return largest_empty_rect_brute(sub, slab);
  }
  const std::size_t mid = (lo + hi) / 2;
  const double cut = pts[mid].x;
  // Split strictly so points on the cut line belong to one side (the cut
  // line itself may pass through a point; the crossing case's reach
  // formula treats boundary points as supports).
  std::vector<DPoint> L(pts.begin() + static_cast<std::ptrdiff_t>(lo),
                        pts.begin() + static_cast<std::ptrdiff_t>(mid));
  std::vector<DPoint> R(pts.begin() + static_cast<std::ptrdiff_t>(mid),
                        pts.begin() + static_cast<std::ptrdiff_t>(hi));
  Rect cross = best_crossing(mach, L, R, slab);
  Rect left{slab.x1, slab.y1, cut, slab.y2};
  Rect right{cut, slab.y1, slab.x2, slab.y2};
  Rect bl, br;
  mach.parallel_branches(2, rec_work(mid - lo) + rec_work(hi - mid),
                         [&](std::size_t h, pram::Machine& sub) {
    if (h == 0) {
      auto cp = L;
      bl = rec(sub, cp, 0, cp.size(), left);
    } else {
      auto cp = R;
      br = rec(sub, cp, 0, cp.size(), right);
    }
  });
  return better(cross, better(bl, br));
}

}  // namespace

Rect largest_empty_rect_par(pram::Machine& mach, std::vector<DPoint> pts,
                            const Rect& bound) {
  PMONGE_REQUIRE(bound.x1 < bound.x2 && bound.y1 < bound.y2,
                 "degenerate bounding rectangle");
  pram::merge_sort_par(mach, pts, [](const DPoint& a, const DPoint& b) {
    return a.x < b.x;
  });
  return rec(mach, pts, 0, pts.size(), bound);
}

std::vector<DPoint> random_dpoints(std::size_t n, Rng& rng,
                                   const Rect& bound) {
  std::vector<DPoint> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform(bound.x1, bound.x2);
    p.y = rng.uniform(bound.y1, bound.y2);
  }
  return pts;
}

std::vector<DPoint> diagonal_dpoints(std::size_t n, const Rect& bound) {
  std::vector<DPoint> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    pts[i] = {bound.x1 + t * (bound.x2 - bound.x1),
              bound.y1 + t * (bound.y2 - bound.y1)};
  }
  return pts;
}

}  // namespace pmonge::apps
