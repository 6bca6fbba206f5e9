#include "support/series.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace pmonge {

int floor_lg(std::uint64_t x) {
  PMONGE_REQUIRE(x >= 1, "floor_lg of 0");
  int lg = 0;
  while (x > 1) {
    x >>= 1;
    ++lg;
  }
  return lg;
}

int ceil_lglg(std::uint64_t x) {
  if (x <= 2) return 0;
  return ceil_lg(static_cast<std::uint64_t>(ceil_lg(x)));
}

std::uint64_t next_pow2(std::uint64_t x) {
  if (x <= 1) return 1;
  std::uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

bool is_pow2(std::uint64_t x) { return x >= 1 && (x & (x - 1)) == 0; }

namespace {
double lg(double x) { return std::log2(std::max(2.0, x)); }
}  // namespace

Shape shape_const() {
  return {"1", [](double) { return 1.0; }};
}
Shape shape_lg() {
  return {"lg n", [](double n) { return lg(n); }};
}
Shape shape_lglg() {
  return {"lglg n", [](double n) { return std::max(1.0, std::log2(lg(n))); }};
}
Shape shape_lg_lglg() {
  return {"lg n lglg n",
          [](double n) { return lg(n) * std::max(1.0, std::log2(lg(n))); }};
}
Shape shape_lg2() {
  return {"lg^2 n", [](double n) { return lg(n) * lg(n); }};
}
Shape shape_linear() {
  return {"n", [](double n) { return n; }};
}
Shape shape_nlg() {
  return {"n lg n", [](double n) { return n * lg(n); }};
}
Shape shape_n2() {
  return {"n^2", [](double n) { return n * n; }};
}

ShapeFit fit_shape(const std::vector<SeriesPoint>& pts, const Shape& shape) {
  ShapeFit fit;
  std::vector<double> ratios;
  ratios.reserve(pts.size());
  for (const auto& p : pts) {
    const double s = shape.f(p.n);
    if (s <= 0) continue;
    ratios.push_back(p.value / s);
  }
  if (ratios.empty()) return fit;
  double sum = 0;
  for (double r : ratios) sum += r;
  fit.constant = sum / static_cast<double>(ratios.size());
  fit.ratio_first = ratios.front();
  fit.ratio_last = ratios.back();
  if (fit.constant > 0) {
    for (double r : ratios) {
      fit.max_rel_dev =
          std::max(fit.max_rel_dev, std::abs(r - fit.constant) / fit.constant);
    }
  }
  return fit;
}

bool matches_shape(const std::vector<SeriesPoint>& pts, const Shape& shape,
                   double tol) {
  const ShapeFit fit = fit_shape(pts, shape);
  return fit.constant > 0 && fit.max_rel_dev <= tol;
}

}  // namespace pmonge
