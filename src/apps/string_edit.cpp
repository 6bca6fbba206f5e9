#include "apps/string_edit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "monge/composite.hpp"
#include "par/hypercube_search.hpp"
#include "par/tube_maxima.hpp"
#include "pram/primitives.hpp"
#include "support/check.hpp"
#include "support/series.hpp"

namespace pmonge::apps {

std::int64_t EditCosts::insert_cost(char c) const {
  if (!ins_table.empty()) return ins_table[static_cast<unsigned char>(c)];
  return ins;
}

std::int64_t EditCosts::delete_cost(char c) const {
  if (!del_table.empty()) return del_table[static_cast<unsigned char>(c)];
  return del;
}

std::int64_t EditCosts::substitute_cost(char a, char b) const {
  return a == b ? 0 : sub;
}

EditResult edit_distance_seq(const std::string& x, const std::string& y,
                             const EditCosts& costs) {
  const std::size_t m = x.size(), n = y.size();
  monge::DenseArray<std::int64_t> dp(m + 1, n + 1, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    dp.at(0, j) = dp(0, j - 1) + costs.insert_cost(y[j - 1]);
  }
  for (std::size_t i = 1; i <= m; ++i) {
    dp.at(i, 0) = dp(i - 1, 0) + costs.delete_cost(x[i - 1]);
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int64_t del = dp(i - 1, j) + costs.delete_cost(x[i - 1]);
      const std::int64_t ins = dp(i, j - 1) + costs.insert_cost(y[j - 1]);
      const std::int64_t sub =
          dp(i - 1, j - 1) + costs.substitute_cost(x[i - 1], y[j - 1]);
      dp.at(i, j) = std::min({del, ins, sub});
    }
  }
  EditResult res;
  res.cost = dp(m, n);
  // Script recovery by backtracking.
  std::size_t i = m, j = n;
  std::vector<EditOp> rev;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        dp(i, j) == dp(i - 1, j - 1) +
                        costs.substitute_cost(x[i - 1], y[j - 1])) {
      rev.push_back({x[i - 1] == y[j - 1] ? EditOp::Keep : EditOp::Substitute,
                     i - 1, j - 1});
      --i;
      --j;
    } else if (i > 0 &&
               dp(i, j) == dp(i - 1, j) + costs.delete_cost(x[i - 1])) {
      rev.push_back({EditOp::Delete, i - 1, 0});
      --i;
    } else {
      PMONGE_ASSERT(j > 0 && dp(i, j) == dp(i, j - 1) +
                                             costs.insert_cost(y[j - 1]),
                    "backtrack failed");
      rev.push_back({EditOp::Insert, i, j - 1});
      --j;
    }
  }
  res.script.assign(rev.rbegin(), rev.rend());
  return res;
}

std::int64_t edit_distance_cost(const std::string& x, const std::string& y,
                                const EditCosts& costs) {
  // row[j] holds dp(i, j) for the row being filled left of j and dp(i-1, j)
  // from j on; `diag` carries dp(i-1, j-1) across the overwrite.
  const std::size_t n = y.size();
  std::vector<std::int64_t> row(n + 1, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    row[j] = row[j - 1] + costs.insert_cost(y[j - 1]);
  }
  for (const char xc : x) {
    const std::int64_t del = costs.delete_cost(xc);
    std::int64_t diag = row[0];
    row[0] += del;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int64_t up = row[j];
      row[j] = std::min({up + del, row[j - 1] + costs.insert_cost(y[j - 1]),
                         diag + costs.substitute_cost(xc, y[j - 1])});
      diag = up;
    }
  }
  return row[n];
}

std::int64_t evaluate_script(const std::string& x, const std::string& y,
                             const std::vector<EditOp>& script,
                             const EditCosts& costs) {
  std::int64_t total = 0;
  for (const auto& op : script) {
    switch (op.kind) {
      case EditOp::Keep:
        break;
      case EditOp::Substitute:
        total += costs.substitute_cost(x[op.i], y[op.j]);
        break;
      case EditOp::Delete:
        total += costs.delete_cost(x[op.i]);
        break;
      case EditOp::Insert:
        total += costs.insert_cost(y[op.j]);
        break;
    }
  }
  return total;
}

std::string apply_script(const std::string& x, const std::string& y,
                         const std::vector<EditOp>& script) {
  std::string out;
  std::size_t xi = 0;
  for (const auto& op : script) {
    switch (op.kind) {
      case EditOp::Keep:
        PMONGE_REQUIRE(op.i == xi, "script out of order");
        out.push_back(x[op.i]);
        ++xi;
        break;
      case EditOp::Substitute:
        PMONGE_REQUIRE(op.i == xi, "script out of order");
        out.push_back(y[op.j]);
        ++xi;
        break;
      case EditOp::Delete:
        PMONGE_REQUIRE(op.i == xi, "script out of order");
        ++xi;
        break;
      case EditOp::Insert:
        out.push_back(y[op.j]);
        break;
    }
  }
  PMONGE_REQUIRE(xi == x.size(), "script does not consume x");
  return out;
}

namespace {

using Dist = monge::DenseArray<std::int64_t>;

/// Base strip for one character of x: DIST[j][k] over boundary columns
/// 0..n of a 1-row grid.  The single down-move is either a deletion or a
/// diagonal substitution at some column p in (j, k]; inserts cover the
/// rest:
///   DIST[j][k] = Ipre[k] - Ipre[j]
///              + min( del(x_i), min_{j < p <= k} sub(x_i, y_p) - ins(y_p) )
/// Graded infinities (j - k) * M fill k < j.
Dist base_strip(pram::Machine& mach, char xi, const std::string& y,
                const EditCosts& costs, std::int64_t big) {
  const std::size_t n = y.size();
  std::vector<std::int64_t> ipre(n + 1, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    ipre[j] = ipre[j - 1] + costs.insert_cost(y[j - 1]);
  }
  // g[p] = sub(x_i, y_p) - ins(y_p) for p in 1..n; sparse table for range
  // minima (host); charged as a doubling prefix-min table build: lg n
  // rounds with (n+1) processors, then one O(1) lookup step per entry.
  std::vector<std::int64_t> g(n + 1, 0);
  for (std::size_t p = 1; p <= n; ++p) {
    g[p] = costs.substitute_cost(xi, y[p - 1]) - costs.insert_cost(y[p - 1]);
  }
  const auto lgn = static_cast<std::uint64_t>(std::max(1, ceil_lg(n + 2)));
  mach.meter().charge(lgn, n + 1, (n + 1) * lgn);  // table build
  std::vector<std::vector<std::int64_t>> table;    // table[k][p]: min over 2^k
  table.push_back(g);
  for (std::size_t len = 2; len <= n + 1; len *= 2) {
    const auto& prev = table.back();
    std::vector<std::int64_t> row(n + 1);
    for (std::size_t p = 0; p + len / 2 <= n; ++p) {
      row[p] = std::min(prev[p], prev[p + len / 2]);
    }
    table.push_back(std::move(row));
  }
  auto range_min = [&](std::size_t lo, std::size_t hi) {  // inclusive
    const std::size_t len = hi - lo + 1;
    const auto k = static_cast<std::size_t>(floor_lg(len));
    return std::min(table[k][lo], table[k][hi + 1 - (std::size_t{1} << k)]);
  };
  Dist d(n + 1, n + 1, 0);
  mach.meter().charge(1, (n + 1) * (n + 1));  // all entries in parallel
  const std::int64_t delc = costs.delete_cost(xi);
  for (std::size_t j = 0; j <= n; ++j) {
    for (std::size_t k = 0; k <= n; ++k) {
      if (k < j) {
        d.at(j, k) = static_cast<std::int64_t>(j - k) * big;
      } else {
        std::int64_t best = delc;
        if (k > j) best = std::min(best, range_min(j + 1, k));
        d.at(j, k) = ipre[k] - ipre[j] + best;
      }
    }
  }
  return d;
}

/// (min,+) product of two DIST matrices via tube minima (Table 1.3's
/// primitive); the graded infinite region keeps both factors Monge.
Dist combine(pram::Machine& mach, const Dist& a, const Dist& b) {
  const auto plane = par::tube_minima(mach, a, b);
  Dist c(a.rows(), b.cols(), 0);
  mach.meter().charge(1, a.rows() * b.cols());
  for (std::size_t j = 0; j < a.rows(); ++j) {
    for (std::size_t k = 0; k < b.cols(); ++k) {
      c.at(j, k) = plane.at(j, k).value;
    }
  }
  return c;
}

/// Predicted charged work of dist_rec over h characters of x against a y
/// of length n: h base strips of (n+1)^2 entries and h-1 combines, each
/// n+1 Monge searches of (n+1) x (n+1) (tube minima slice by slice).
std::uint64_t dist_work(std::size_t h, std::size_t n) {
  const std::uint64_t q = n + 1;
  return h * q * q + (h - 1) * q * par::rowmin_work(q, q);
}

Dist dist_rec(pram::Machine& mach, const std::string& x, std::size_t a,
              std::size_t b, const std::string& y, const EditCosts& costs,
              std::int64_t big) {
  if (b - a == 1) return base_strip(mach, x[a], y, costs, big);
  const std::size_t mid = (a + b) / 2;
  Dist top, bot;
  const std::uint64_t work =
      dist_work(mid - a, y.size()) + dist_work(b - mid, y.size());
  mach.parallel_branches(2, work, [&](std::size_t h, pram::Machine& sub) {
    if (h == 0) {
      top = dist_rec(sub, x, a, mid, y, costs, big);
    } else {
      bot = dist_rec(sub, x, mid, b, y, costs, big);
    }
  });
  return combine(mach, top, bot);
}

std::int64_t instance_big(const std::string& x, const std::string& y,
                          const EditCosts& costs) {
  // Strictly larger than any finite path cost.
  std::int64_t total = 1;
  for (char c : x) total += std::abs(costs.delete_cost(c));
  for (char c : y) total += std::abs(costs.insert_cost(c));
  total += static_cast<std::int64_t>(std::max(x.size(), y.size()) + 1) *
           (std::abs(costs.sub) + 1);
  return total;
}

/// (min,+) combine on the network: one Monge row-minima slice per output
/// column, run in lockstep on padded power-of-two sub-cubes.
Dist combine_hc(net::TopologyKind kind, const Dist& a, const Dist& b,
                std::uint64_t& steps, std::size_t& nodes) {
  const std::size_t q = a.rows();
  const std::size_t side = pmonge::next_pow2(q);
  std::vector<std::size_t> idx(side);
  for (std::size_t t = 0; t < side; ++t) idx[t] = std::min(t, q - 1);
  Dist c(q, q, 0);
  std::uint64_t combine_steps = 0;
  std::size_t combine_nodes = 0;
  for (std::size_t k = 0; k < q; ++k) {
    net::Engine e(kind, ceil_lg(2 * side));
    auto res = par::hc_monge_row_minima<std::int64_t>(
        e, idx, idx,
        [&](std::size_t i, std::size_t j) { return a(i, j) + b(j, k); });
    combine_steps = std::max(
        combine_steps, e.meter().comm_steps + e.meter().local_steps);
    combine_nodes += e.physical_nodes();
    for (std::size_t i = 0; i < q; ++i) c.at(i, k) = res[i].value;
  }
  steps += combine_steps;
  nodes = std::max(nodes, combine_nodes);
  return c;
}

Dist dist_rec_hc(net::TopologyKind kind, const std::string& x, std::size_t a,
                 std::size_t b, const std::string& y, const EditCosts& costs,
                 std::int64_t big, std::uint64_t& steps, std::size_t& nodes) {
  if (b - a == 1) {
    pram::Machine scratch(pram::Model::CREW);
    steps += 2;  // local base-strip construction (prefix tables)
    return base_strip(scratch, x[a], y, costs, big);
  }
  const std::size_t mid = (a + b) / 2;
  // The two halves run on disjoint sub-networks in lockstep: charge the
  // max of their step counts.
  std::uint64_t s1 = 0, s2 = 0;
  Dist top = dist_rec_hc(kind, x, a, mid, y, costs, big, s1, nodes);
  Dist bot = dist_rec_hc(kind, x, mid, b, y, costs, big, s2, nodes);
  steps += std::max(s1, s2);
  return combine_hc(kind, top, bot, steps, nodes);
}

}  // namespace

HcEditResult edit_distance_hc(net::TopologyKind kind, const std::string& x,
                              const std::string& y, const EditCosts& costs) {
  PMONGE_REQUIRE(!x.empty(), "x must be non-empty");
  HcEditResult out;
  const auto d = dist_rec_hc(kind, x, 0, x.size(), y, costs,
                             instance_big(x, y, costs), out.steps,
                             out.physical_nodes);
  out.cost = d(0, y.size());
  return out;
}

monge::DenseArray<std::int64_t> edit_dist_matrix(pram::Machine& mach,
                                                 const std::string& x,
                                                 const std::string& y,
                                                 const EditCosts& costs) {
  PMONGE_REQUIRE(!x.empty(), "x must be non-empty (use seq for trivia)");
  return dist_rec(mach, x, 0, x.size(), y, costs,
                  instance_big(x, y, costs));
}

std::int64_t edit_distance_par(pram::Machine& mach, const std::string& x,
                               const std::string& y, const EditCosts& costs) {
  const std::size_t n = y.size();
  if (x.empty()) {
    // Pure insertion: a prefix sum.
    std::vector<std::int64_t> c(n, 0);
    for (std::size_t j = 0; j < n; ++j) c[j] = costs.insert_cost(y[j]);
    return pram::reduce<std::int64_t>(
        mach, n, [&](std::size_t j) { return c[j]; },
        std::plus<std::int64_t>{}, 0);
  }
  const auto d = edit_dist_matrix(mach, x, y, costs);
  return d(0, n);
}

std::size_t lcs_length_seq(const std::string& x, const std::string& y) {
  const std::size_t m = x.size(), n = y.size();
  std::vector<std::size_t> prev(n + 1, 0), cur(n + 1, 0);
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      cur[j] = x[i - 1] == y[j - 1] ? prev[j - 1] + 1
                                    : std::max(prev[j], cur[j - 1]);
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

std::size_t lcs_length_par(pram::Machine& mach, const std::string& x,
                           const std::string& y) {
  EditCosts costs;
  costs.ins = 1;
  costs.del = 1;
  costs.sub = 2;  // substitute == delete + insert; LCS identity holds
  const auto d = edit_distance_par(mach, x, y, costs);
  const auto total =
      static_cast<std::int64_t>(x.size()) + static_cast<std::int64_t>(y.size());
  PMONGE_ASSERT((total - d) % 2 == 0 && d <= total, "LCS identity violated");
  return static_cast<std::size_t>((total - d) / 2);
}

double ranka_sahni_time_n2p(std::size_t n, std::size_t p) {
  // O(sqrt(n lg n / p) + lg^2 n) with n^2 p processors, 1 <= p <= n.
  const double lg = std::max(1.0, std::log2(static_cast<double>(n)));
  return std::sqrt(static_cast<double>(n) * lg / static_cast<double>(p)) +
         lg * lg;
}

double ranka_sahni_time_p2(std::size_t n, std::size_t p2) {
  // O(n^1.5 sqrt(lg n) / p) with p^2 processors, n lg n <= p^2 <= n^2.
  const double lg = std::max(1.0, std::log2(static_cast<double>(n)));
  const double p = std::sqrt(static_cast<double>(p2));
  return std::pow(static_cast<double>(n), 1.5) * std::sqrt(lg) / p;
}

}  // namespace pmonge::apps
