// Application tests: all four Section 1.3 applications against their
// brute-force oracles on randomized and adversarial instances, plus the
// complexity shapes the paper claims for each.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/empty_rect.hpp"
#include "apps/largest_rect.hpp"
#include "apps/polygon_neighbors.hpp"
#include "apps/string_edit.hpp"
#include "support/rng.hpp"
#include "support/series.hpp"

namespace pmonge::apps {
namespace {

using pram::Machine;
using pram::Model;

// --- Application 2: largest two-corner rectangle -----------------------

TEST(LargestRect, MatchesBruteRandom) {
  Rng rng(11);
  for (int t = 0; t < 25; ++t) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 120));
    const auto pts = random_points(n, rng);
    Machine mach(Model::CRCW_COMMON);
    const auto got = largest_rect_par(mach, pts);
    const auto want = largest_rect_brute(pts);
    EXPECT_EQ(got.area, want.area) << "n=" << n;
    // Returned pair must realize the area.
    EXPECT_EQ(std::abs(got.a.x - got.b.x) * std::abs(got.a.y - got.b.y),
              got.area);
  }
}

TEST(LargestRect, MatchesBruteClusteredAndAdversarial) {
  Rng rng(12);
  for (int t = 0; t < 10; ++t) {
    const auto pts = clustered_points(80, rng);
    Machine mach(Model::CRCW_COMMON);
    EXPECT_EQ(largest_rect_par(mach, pts).area,
              largest_rect_brute(pts).area);
  }
  const auto anti = antidiagonal_points(90);
  Machine mach(Model::CRCW_COMMON);
  EXPECT_EQ(largest_rect_par(mach, anti).area,
            largest_rect_brute(anti).area);
}

TEST(LargestRect, DegenerateInputs) {
  Machine mach(Model::CRCW_COMMON);
  // Two identical points: zero area.
  EXPECT_EQ(largest_rect_par(mach, {{5, 5}, {5, 5}}).area, 0);
  // Collinear (same y): zero area.
  EXPECT_EQ(largest_rect_par(mach, {{0, 3}, {4, 3}, {9, 3}}).area, 0);
  EXPECT_THROW(largest_rect_par(mach, {{0, 0}}), std::invalid_argument);
}

TEST(LargestRect, StaircasesAreDominanceLayers) {
  Rng rng(13);
  const auto pts = random_points(60, rng);
  const auto st = dominance_staircases(pts);
  for (const auto& p : st.minimal) {
    for (const auto& q : pts) {
      EXPECT_FALSE((q.x <= p.x && q.y < p.y) || (q.x < p.x && q.y <= p.y))
          << "dominated minimal point";
    }
  }
  for (std::size_t i = 1; i < st.minimal.size(); ++i) {
    EXPECT_GT(st.minimal[i].x, st.minimal[i - 1].x);
    EXPECT_LT(st.minimal[i].y, st.minimal[i - 1].y);
  }
}

TEST(LargestRect, DepthIsLogarithmic) {
  // The paper claims Theta(lg n) time with n processors (optimal CRCW).
  Rng rng(14);
  std::vector<SeriesPoint> pts_series;
  for (std::size_t n : {256u, 1024u, 4096u, 16384u}) {
    const auto pts = random_points(n, rng);
    Machine mach(Model::CRCW_COMMON);
    largest_rect_par(mach, pts);
    pts_series.push_back({static_cast<double>(n),
                          static_cast<double>(mach.meter().time)});
  }
  EXPECT_TRUE(matches_shape(pts_series, shape_lg(), 0.5));
}

// --- Application 1: largest empty rectangle ----------------------------

TEST(EmptyRect, MatchesBruteRandom) {
  Rng rng(21);
  const Rect bound{0, 0, 100, 80};
  for (int t = 0; t < 20; ++t) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const auto pts = random_dpoints(n, rng, bound);
    Machine mach(Model::CRCW_COMMON);
    const auto got = largest_empty_rect_par(mach, pts, bound);
    const auto want = largest_empty_rect_brute(pts, bound);
    EXPECT_NEAR(got.area(), want.area(), 1e-6 * std::max(1.0, want.area()))
        << "n=" << n;
    EXPECT_TRUE(rect_is_empty(got, pts, bound));
  }
}

TEST(EmptyRect, DiagonalAdversary) {
  const Rect bound{0, 0, 64, 64};
  for (std::size_t n : {5u, 17u, 33u}) {
    const auto pts = diagonal_dpoints(n, bound);
    Machine mach(Model::CRCW_COMMON);
    const auto got = largest_empty_rect_par(mach, pts, bound);
    const auto want = largest_empty_rect_brute(pts, bound);
    EXPECT_NEAR(got.area(), want.area(), 1e-6);
    EXPECT_TRUE(rect_is_empty(got, pts, bound));
  }
}

TEST(EmptyRect, NoPointsGivesWholeBound) {
  const Rect bound{1, 2, 9, 7};
  Machine mach(Model::CREW);
  const auto got = largest_empty_rect_par(mach, {}, bound);
  EXPECT_NEAR(got.area(), bound.area(), 1e-12);
}

TEST(EmptyRect, DepthIsPolylog) {
  // Paper: O(lg^2 n) CRCW time.
  Rng rng(22);
  const Rect bound{0, 0, 1000, 1000};
  std::vector<SeriesPoint> series;
  for (std::size_t n : {64u, 256u, 1024u}) {
    const auto pts = random_dpoints(n, rng, bound);
    Machine mach(Model::CRCW_COMMON);
    largest_empty_rect_par(mach, pts, bound);
    series.push_back({static_cast<double>(n),
                      static_cast<double>(mach.meter().time)});
  }
  EXPECT_TRUE(matches_shape(series, shape_lg2(), 0.6))
      << series.front().value << " .. " << series.back().value;
}

// --- Application 3: polygon neighbors ----------------------------------

class Neighbors : public ::testing::TestWithParam<NeighborKind> {};

TEST_P(Neighbors, MatchesBruteRandom) {
  Rng rng(31 + static_cast<int>(GetParam()));
  for (int t = 0; t < 12; ++t) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(3, 24));
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 24));
    const auto [P, Q] = geom::random_disjoint_polygons(m, n, rng);
    Machine mach(Model::CRCW_COMMON);
    const auto got = neighbors_par(mach, P, Q, GetParam());
    const auto want = neighbors_brute(P, Q, GetParam());
    for (std::size_t i = 0; i < m; ++i) {
      if (want.neighbor[i] == NeighborResult::npos) {
        EXPECT_EQ(got.neighbor[i], NeighborResult::npos) << i;
        continue;
      }
      ASSERT_NE(got.neighbor[i], NeighborResult::npos) << i;
      EXPECT_NEAR(got.distance[i], want.distance[i], 1e-9) << i;
      // The returned neighbor must satisfy the kind's predicate.
      const bool vis = GetParam() == NeighborKind::NearestVisible ||
                       GetParam() == NeighborKind::FarthestVisible;
      EXPECT_EQ(geom::visible(P, i, Q, got.neighbor[i]), vis) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Neighbors,
                         ::testing::Values(NeighborKind::NearestVisible,
                                           NeighborKind::NearestInvisible,
                                           NeighborKind::FarthestVisible,
                                           NeighborKind::FarthestInvisible),
                         [](const auto& info) {
                           std::string s = neighbor_kind_name(info.param);
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

TEST(NeighborsFastPath, BlocksAreCertifiedAndAccounted) {
  // The distance array between two *separate* convex polygons is not
  // globally inverse-Monge (unlike Figure 1.1's single-cycle chains), so
  // each chain block is certified at run time and falls back to a
  // metered scan when the certificate fails.  Every block must be
  // accounted one way or the other, and results stay exact either way
  // (MatchesBruteRandom above).  On small well-overlapping polygons the
  // certified fast path fires for a meaningful share of blocks.
  Rng rng(35);
  std::size_t fast = 0, slow = 0;
  for (int t = 0; t < 10; ++t) {
    const auto [P, Q] = geom::random_disjoint_polygons(24, 24, rng);
    Machine mach(Model::CRCW_COMMON);
    std::size_t f = 0, s = 0;
    neighbors_par(mach, P, Q, NeighborKind::NearestInvisible, &f, &s);
    EXPECT_EQ(f + s, 4u) << "every chain block accounted";
    fast += f;
    slow += s;
  }
  EXPECT_GT(fast, 0u);
  EXPECT_GT(slow, 0u);
}

// --- Application 4: string editing -------------------------------------

std::string random_string(std::size_t len, std::size_t alphabet, Rng& rng) {
  std::string s(len, 'a');
  for (auto& c : s) {
    c = static_cast<char>('a' + rng.uniform_int(
                                    0, static_cast<std::int64_t>(alphabet) -
                                           1));
  }
  return s;
}

TEST(StringEdit, SequentialUnitDistanceKnownValues) {
  EditCosts unit;
  EXPECT_EQ(edit_distance_seq("kitten", "sitting", unit).cost, 3);
  EXPECT_EQ(edit_distance_seq("", "abc", unit).cost, 3);
  EXPECT_EQ(edit_distance_seq("abc", "", unit).cost, 3);
  EXPECT_EQ(edit_distance_seq("same", "same", unit).cost, 0);
}

TEST(StringEdit, ScriptsAreValidAndCostConsistent) {
  Rng rng(41);
  EditCosts costs;
  costs.ins = 2;
  costs.del = 3;
  costs.sub = 4;
  for (int t = 0; t < 20; ++t) {
    const auto x = random_string(
        static_cast<std::size_t>(rng.uniform_int(0, 30)), 4, rng);
    const auto y = random_string(
        static_cast<std::size_t>(rng.uniform_int(0, 30)), 4, rng);
    const auto res = edit_distance_seq(x, y, costs);
    EXPECT_EQ(evaluate_script(x, y, res.script, costs), res.cost);
    EXPECT_EQ(apply_script(x, y, res.script), y);
  }
}

TEST(StringEdit, CostOnlyDpMatchesSequential) {
  // The serve path's rolling-row DP against the full table's cost: empty
  // strings, unit and non-unit ins/del/sub, and per-symbol tables.
  EditCosts unit;
  EXPECT_EQ(edit_distance_cost("", "", unit), 0);
  EXPECT_EQ(edit_distance_cost("", "abc", unit), 3);
  EXPECT_EQ(edit_distance_cost("abc", "", unit), 3);
  EXPECT_EQ(edit_distance_cost("kitten", "sitting", unit), 3);
  Rng rng(45);
  for (int t = 0; t < 200; ++t) {
    const auto x = random_string(
        static_cast<std::size_t>(rng.uniform_int(0, 40)), 4, rng);
    const auto y = random_string(
        static_cast<std::size_t>(rng.uniform_int(0, 40)), 4, rng);
    EditCosts costs;
    if (t % 4 != 0) {
      costs.ins = rng.uniform_int(0, 7);
      costs.del = rng.uniform_int(0, 7);
      costs.sub = rng.uniform_int(0, 15);
    }
    if (t % 5 == 0) {
      costs.ins_table.assign(256, 1);
      costs.del_table.assign(256, 1);
      for (int c = 0; c < 256; ++c) {
        costs.ins_table[static_cast<std::size_t>(c)] = 1 + (c % 4);
        costs.del_table[static_cast<std::size_t>(c)] = 2 + (c % 3);
      }
    }
    EXPECT_EQ(edit_distance_cost(x, y, costs),
              edit_distance_seq(x, y, costs).cost)
        << "\"" << x << "\" -> \"" << y << "\" ins=" << costs.ins
        << " del=" << costs.del << " sub=" << costs.sub;
  }
}

TEST(StringEdit, ParallelMatchesSequentialRandom) {
  Rng rng(42);
  for (int t = 0; t < 15; ++t) {
    const auto x = random_string(
        1 + static_cast<std::size_t>(rng.uniform_int(0, 24)), 3, rng);
    const auto y = random_string(
        static_cast<std::size_t>(rng.uniform_int(0, 24)), 3, rng);
    EditCosts costs;
    costs.ins = rng.uniform_int(1, 5);
    costs.del = rng.uniform_int(1, 5);
    costs.sub = rng.uniform_int(1, 9);
    Machine mach(Model::CREW);
    EXPECT_EQ(edit_distance_par(mach, x, y, costs),
              edit_distance_seq(x, y, costs).cost)
        << x << " -> " << y;
  }
}

TEST(StringEdit, ParallelPerSymbolCostTables) {
  Rng rng(43);
  EditCosts costs;
  costs.ins_table.assign(256, 1);
  costs.del_table.assign(256, 1);
  for (int c = 0; c < 256; ++c) {
    costs.ins_table[static_cast<std::size_t>(c)] = 1 + (c % 3);
    costs.del_table[static_cast<std::size_t>(c)] = 1 + (c % 2);
  }
  for (int t = 0; t < 10; ++t) {
    const auto x = random_string(12, 5, rng);
    const auto y = random_string(18, 5, rng);
    Machine mach(Model::CREW);
    EXPECT_EQ(edit_distance_par(mach, x, y, costs),
              edit_distance_seq(x, y, costs).cost);
  }
}

TEST(StringEdit, EmptyXParallel) {
  Machine mach(Model::CREW);
  EditCosts unit;
  EXPECT_EQ(edit_distance_par(mach, "", "abcd", unit), 4);
}

TEST(StringEdit, DepthIsLgMTimesLgN) {
  // Paper: O(lg n lg m) (on an nm-processor machine).
  Rng rng(44);
  std::vector<SeriesPoint> series;
  EditCosts unit;
  for (std::size_t n : {8u, 16u, 32u, 64u}) {
    const auto x = random_string(n, 4, rng);
    const auto y = random_string(n, 4, rng);
    Machine mach(Model::CREW);
    edit_distance_par(mach, x, y, unit);
    series.push_back({static_cast<double>(n),
                      static_cast<double>(mach.meter().time)});
  }
  EXPECT_TRUE(matches_shape(series, shape_lg2(), 0.5))
      << series.front().value << " .. " << series.back().value;
}

TEST(StringEdit, LcsViaGridDag) {
  EXPECT_EQ(lcs_length_seq("ABCBDAB", "BDCABA"), 4u);  // BCAB / BDAB
  EXPECT_EQ(lcs_length_seq("", "xyz"), 0u);
  Rng rng(47);
  for (int t = 0; t < 12; ++t) {
    const auto x = random_string(
        1 + static_cast<std::size_t>(rng.uniform_int(0, 20)), 3, rng);
    const auto y = random_string(
        1 + static_cast<std::size_t>(rng.uniform_int(0, 20)), 3, rng);
    Machine mach(Model::CREW);
    EXPECT_EQ(lcs_length_par(mach, x, y), lcs_length_seq(x, y))
        << x << " | " << y;
  }
}

TEST(StringEdit, HypercubeVariantMatchesSequential) {
  // The paper's Application 4 proper: string editing on hypercubic
  // networks.  Must agree with Wagner-Fischer on every topology.
  Rng rng(45);
  EditCosts unit;
  for (auto kind :
       {net::TopologyKind::Hypercube, net::TopologyKind::CubeConnectedCycles,
        net::TopologyKind::ShuffleExchange}) {
    for (int t = 0; t < 4; ++t) {
      const auto x = random_string(
          1 + static_cast<std::size_t>(rng.uniform_int(0, 12)), 3, rng);
      const auto y = random_string(
          static_cast<std::size_t>(rng.uniform_int(0, 12)), 3, rng);
      const auto hc = edit_distance_hc(kind, x, y, unit);
      EXPECT_EQ(hc.cost, edit_distance_seq(x, y, unit).cost)
          << net::topology_name(kind) << " " << x << "->" << y;
      EXPECT_GT(hc.steps, 0u);
    }
  }
}

TEST(StringEdit, HypercubeDepthPolylogAndEmulationConstant) {
  Rng rng(46);
  EditCosts unit;
  std::vector<double> hc_steps;
  for (std::size_t n : {8u, 16u, 32u}) {
    const auto x = random_string(n, 4, rng);
    const auto y = random_string(n, 4, rng);
    const auto hc =
        edit_distance_hc(net::TopologyKind::Hypercube, x, y, unit);
    const auto se =
        edit_distance_hc(net::TopologyKind::ShuffleExchange, x, y, unit);
    EXPECT_EQ(hc.cost, se.cost);
    EXPECT_LE(se.steps, 4 * hc.steps);  // constant-slowdown emulation
    hc_steps.push_back(static_cast<double>(hc.steps));
  }
  // Polylog growth (lg m levels x lg^2 n combines): from n=8 to n=32 the
  // lg^3 envelope grows (5/3)^3 ~ 4.6x while the sequential work grows
  // 16x; measured ~3.1x.
  EXPECT_LE(hc_steps.back(), 5.0 * hc_steps.front());
}

TEST(StringEdit, RankaSahniBoundFormulas) {
  // Monotone in p, and our O(lg n lg m) beats both at matching n.
  EXPECT_GT(ranka_sahni_time_n2p(1024, 1), ranka_sahni_time_n2p(1024, 64));
  EXPECT_GT(ranka_sahni_time_p2(1024, 1024 * 16),
            ranka_sahni_time_p2(1024, 1024 * 1024));
}

}  // namespace
}  // namespace pmonge::apps
