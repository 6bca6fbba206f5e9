#include "apps/largest_rect.hpp"

#include <algorithm>

#include "monge/array.hpp"
#include "par/monge_rowminima.hpp"
#include "pram/primitives.hpp"
#include "support/check.hpp"

namespace pmonge::apps {

RectPair largest_rect_brute(const std::vector<IPoint>& pts) {
  PMONGE_REQUIRE(pts.size() >= 2, "need at least two points");
  RectPair best{-1, {}, {}};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const std::int64_t area = std::abs(pts[i].x - pts[j].x) *
                                std::abs(pts[i].y - pts[j].y);
      if (area > best.area) best = {area, pts[i], pts[j]};
    }
  }
  return best;
}

Staircases dominance_staircases(const std::vector<IPoint>& pts) {
  std::vector<IPoint> s = pts;
  std::sort(s.begin(), s.end(), [](const IPoint& a, const IPoint& b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  Staircases out;
  // Minimal: sweep left to right keeping strictly decreasing y.
  std::int64_t miny = 0;
  bool first = true;
  for (const auto& p : s) {
    if (first || p.y < miny) {
      out.minimal.push_back(p);
      miny = p.y;
      first = false;
    }
  }
  // Maximal: sweep right to left keeping y above the running max.
  std::int64_t maxy = 0;
  first = true;
  for (auto it = s.rbegin(); it != s.rend(); ++it) {
    if (first || it->y > maxy) {
      out.maximal.push_back(*it);
      maxy = it->y;
      first = false;
    }
  }
  std::reverse(out.maximal.begin(), out.maximal.end());
  return out;
}

namespace {

/// Predicted charged work of largest_rect_par on n points: per
/// orientation a 21-bit radix sort (84n) and the staircase sweeps (8n);
/// the search over the two staircases is small beside them.
std::uint64_t largest_rect_work(std::size_t n) { return 2 * 92 * n; }

/// Best NE/SW-diagonal pair via one inverse-Monge row-maxima call.
RectPair best_one_orientation(pram::Machine& mach,
                              const std::vector<IPoint>& pts) {
  // Charged preprocessing: radix sort on bounded integer coordinates
  // (O(lg n) depth) plus two prefix-sweep staircase extractions.
  {
    std::vector<IPoint> tmp = pts;
    pram::radix_sort_par(
        mach, tmp, [](const IPoint& p) { return p.x; }, 21);
  }
  const auto lgn = static_cast<std::uint64_t>(
      std::max(1, ceil_lg(pts.size() + 1)));
  mach.meter().charge(4 * lgn, pts.size(), 8 * pts.size());  // sweeps

  const Staircases st = dominance_staircases(pts);
  const auto& lo = st.minimal;
  const auto& hi = st.maximal;
  // Signed area over (minimal x maximal) is inverse-Monge; negatives are
  // sign-inconsistent pairs and never beat the true maximum (>= 0).
  auto area = monge::make_func_array<std::int64_t>(
      lo.size(), hi.size(), [&](std::size_t i, std::size_t j) {
        return (hi[j].x - lo[i].x) * (hi[j].y - lo[i].y);
      });
  auto rows = par::inverse_monge_row_maxima(mach, area);
  auto best = pram::argopt<std::int64_t>(
      mach, rows.size(), [&](std::size_t i) { return rows[i].value; },
      [](std::int64_t a, std::int64_t b) { return b < a; });
  const std::size_t i = best.index;
  const std::size_t j = rows[i].col;
  return {std::max<std::int64_t>(best.value, 0), lo[i], hi[j]};
}

}  // namespace

RectPair largest_rect_par(pram::Machine& mach, std::vector<IPoint> pts) {
  PMONGE_REQUIRE(pts.size() >= 2, "need at least two points");
  RectPair ne = best_one_orientation(mach, pts);
  for (auto& p : pts) p.y = -p.y;
  RectPair nw = best_one_orientation(mach, pts);
  nw.a.y = -nw.a.y;
  nw.b.y = -nw.b.y;
  mach.meter().charge(1, 1);
  RectPair best = ne.area >= nw.area ? ne : nw;
  if (best.area == 0) {
    // Degenerate input (all pairs collinear in x or y); any pair works.
    best = {0, pts[0], pts[1]};
    best.a.y = -best.a.y;
    best.b.y = -best.b.y;
  }
  return best;
}

std::vector<RectPair> largest_rect_par_batch(
    pram::Machine& mach, const std::vector<std::vector<IPoint>>& instances) {
  for (const auto& pts : instances) {
    PMONGE_REQUIRE(pts.size() >= 2, "need at least two points");
  }
  std::vector<RectPair> out(instances.size());
  std::uint64_t work = 0;
  for (const auto& pts : instances) work += largest_rect_work(pts.size());
  mach.parallel_branches(instances.size(), work,
                         [&](std::size_t i, pram::Machine& sub) {
                           out[i] = largest_rect_par(sub, instances[i]);
                         });
  return out;
}

std::vector<IPoint> random_points(std::size_t n, Rng& rng,
                                  std::int64_t coord_max) {
  std::vector<IPoint> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform_int(0, coord_max);
    p.y = rng.uniform_int(0, coord_max);
  }
  return pts;
}

std::vector<IPoint> clustered_points(std::size_t n, Rng& rng,
                                     std::size_t clusters) {
  std::vector<IPoint> centers(clusters);
  for (auto& c : centers) {
    c.x = rng.uniform_int(0, 1 << 20);
    c.y = rng.uniform_int(0, 1 << 20);
  }
  std::vector<IPoint> pts(n);
  for (auto& p : pts) {
    const auto& c =
        centers[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(clusters) - 1))];
    p.x = c.x + rng.uniform_int(-2000, 2000);
    p.y = c.y + rng.uniform_int(-2000, 2000);
  }
  return pts;
}

std::vector<IPoint> antidiagonal_points(std::size_t n) {
  // Every point is on both dominance staircases: the adversarial case for
  // the staircase pruning.
  std::vector<IPoint> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {static_cast<std::int64_t>(i * 7),
              static_cast<std::int64_t>((n - i) * 11)};
  }
  return pts;
}

}  // namespace pmonge::apps
