// Shape analysis for complexity series.
//
// The paper's evaluation consists of asymptotic bounds (Tables 1.1-1.3).
// Reproducing them means showing that a *measured* series -- charged
// parallel steps, work, communication rounds -- scales like the claimed
// shape.  This header provides the shape functions used throughout the
// benchmark harness and a least-squares fit `measured ~= c * shape(n)`
// whose relative residual tells us whether the shape holds.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace pmonge {

/// ceil(lg x) for x >= 1 (lg 1 == 0); the discrete logarithm used by all
/// charged-step bounds in the paper.  Inline: every charged primitive
/// calls it.
inline int ceil_lg(std::uint64_t x) {
  PMONGE_REQUIRE(x >= 1, "ceil_lg of 0");
  return static_cast<int>(std::bit_width(x - 1));
}

/// floor(lg x) for x >= 1.
int floor_lg(std::uint64_t x);

/// ceil(lg lg x); defined as 0 for x <= 2.
int ceil_lglg(std::uint64_t x);

/// Smallest power of two >= x.
std::uint64_t next_pow2(std::uint64_t x);

/// True if x is a power of two (x >= 1).
bool is_pow2(std::uint64_t x);

/// Integer floor(sqrt(x)).  Inline: every square row-minima frame calls it.
inline std::uint64_t isqrt(std::uint64_t x) {
  if (x == 0) return 0;
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  while (r > 0 && r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

/// A named asymptotic shape, e.g. "lg n" -> double(n).
struct Shape {
  std::string name;
  std::function<double(double)> f;
};

Shape shape_const();
Shape shape_lg();
Shape shape_lglg();
Shape shape_lg_lglg();  // lg n * lglg n
Shape shape_lg2();      // lg^2 n
Shape shape_linear();
Shape shape_nlg();      // n lg n
Shape shape_n2();       // n^2

/// One measured point of a complexity series.
struct SeriesPoint {
  double n = 0;      // problem size
  double value = 0;  // measured quantity (steps, work, ...)
};

/// Result of fitting value ~= c * shape(n) by least squares on the ratios.
struct ShapeFit {
  double constant = 0;      // fitted c (mean of value/shape(n))
  double max_rel_dev = 0;   // max_i |value_i - c*shape(n_i)| / (c*shape(n_i))
  double ratio_first = 0;   // value/shape at smallest n
  double ratio_last = 0;    // value/shape at largest n
};

/// Fit a series against a shape. Points with shape(n) == 0 are skipped.
ShapeFit fit_shape(const std::vector<SeriesPoint>& pts, const Shape& shape);

/// Convenience: does the series scale like `shape` within tolerance `tol`
/// on the relative deviation of the ratio series?  Used by tests that pin
/// the complexity of the implementations.
bool matches_shape(const std::vector<SeriesPoint>& pts, const Shape& shape,
                   double tol);

}  // namespace pmonge
