// Tests for Theorem 2.3 / Corollary 2.4: parallel staircase-Monge row
// minima (and the easy maxima direction) against brute force, across
// models, schedules, shapes and degenerate frontiers; the column order of
// each row's canonical segments; complexity pinning for the Table 1.2
// shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "monge/brute.hpp"
#include "monge/generators.hpp"
#include "par/staircase_rowminima.hpp"
#include "support/rng.hpp"
#include "support/series.hpp"

namespace pmonge::par {
namespace {

using monge::DenseArray;
using monge::StaircaseArray;
using monge::random_monge;
using monge::random_staircase_monge;
using monge::row_maxima_brute;
using monge::row_minima_brute;
using pram::Machine;
using pram::Model;

using Stair = StaircaseArray<DenseArray<std::int64_t>>;

struct Dims {
  std::size_t m, n;
};

class ParStaircase : public ::testing::TestWithParam<
                         std::tuple<Dims, Model, StaircaseSchedule>> {};

TEST_P(ParStaircase, MinimaMatchesBrute) {
  const auto [dims, model, sched] = GetParam();
  Rng rng(91 + dims.m * 13 + dims.n);
  for (int t = 0; t < 5; ++t) {
    const auto inst = random_staircase_monge(dims.m, dims.n, rng);
    Stair s(inst.base, inst.frontier);
    Machine mach(model);
    EXPECT_EQ(staircase_row_minima(mach, s, sched), row_minima_brute(s));
  }
}

TEST_P(ParStaircase, MaximaMatchesBrute) {
  const auto [dims, model, sched] = GetParam();
  Rng rng(191 + dims.m * 13 + dims.n);
  for (int t = 0; t < 5; ++t) {
    const auto inst = random_staircase_monge(dims.m, dims.n, rng);
    Stair s(inst.base, inst.frontier);
    Machine mach(model);
    EXPECT_EQ(staircase_row_maxima(mach, s, sched), row_maxima_brute(s));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesModelsSchedules, ParStaircase,
    ::testing::Combine(
        ::testing::Values(Dims{1, 1}, Dims{5, 5}, Dims{16, 16}, Dims{33, 17},
                          Dims{17, 33}, Dims{64, 64}, Dims{100, 100},
                          Dims{128, 40}, Dims{40, 128}),
        ::testing::Values(Model::CREW, Model::CRCW_COMMON),
        ::testing::Values(StaircaseSchedule::MaxParallel,
                          StaircaseSchedule::WorkEfficient,
                          StaircaseSchedule::ColumnSplit)),
    [](const auto& info) {
      const Dims dims = std::get<0>(info.param);
      std::string name = pram::model_name(std::get<1>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      const char* sched =
          std::get<2>(info.param) == StaircaseSchedule::MaxParallel
              ? "maxpar"
              : (std::get<2>(info.param) == StaircaseSchedule::WorkEfficient
                     ? "workeff"
                     : "colsplit");
      return "m" + std::to_string(dims.m) + "n" + std::to_string(dims.n) +
             "_" + name + "_" + sched;
    });

TEST(ParStaircaseCross, ThreeAlgorithmsAgree) {
  // Three independently-derived algorithms for Theorem 2.3 must produce
  // identical output (values, columns and tie choices) on shared inputs.
  Rng rng(103);
  for (int t = 0; t < 10; ++t) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 90));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 90));
    const auto inst = random_staircase_monge(m, n, rng);
    Stair s(inst.base, inst.frontier);
    Machine m1(Model::CRCW_COMMON), m2(Model::CRCW_COMMON),
        m3(Model::CRCW_COMMON);
    const auto a = staircase_row_minima(m1, s, StaircaseSchedule::MaxParallel);
    const auto b =
        staircase_row_minima(m2, s, StaircaseSchedule::WorkEfficient);
    const auto c = staircase_row_minima(m3, s, StaircaseSchedule::ColumnSplit);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
  }
}

TEST(ParStaircaseEdge, FullFrontierMatchesMongeSearch) {
  Rng rng(95);
  const auto a = random_monge(40, 50, rng);
  Stair s(a, std::vector<std::size_t>(40, 50));
  Machine mach(Model::CRCW_COMMON);
  EXPECT_EQ(staircase_row_minima(mach, s), row_minima_brute(a));
}

TEST(ParStaircaseEdge, AllInfiniteRows) {
  Rng rng(96);
  const auto a = random_monge(6, 8, rng);
  Stair s(a, std::vector<std::size_t>(6, 0));
  Machine mach(Model::CREW);
  const auto mins = staircase_row_minima(mach, s);
  for (const auto& r : mins) {
    EXPECT_EQ(r.col, monge::kNoCol);
  }
}

TEST(ParStaircaseEdge, SingleFiniteColumn) {
  Rng rng(97);
  const auto a = random_monge(5, 7, rng);
  Stair s(a, {7, 1, 1, 1, 1});
  Machine mach(Model::CRCW_COMMON);
  const auto mins = staircase_row_minima(mach, s);
  EXPECT_EQ(mins, row_minima_brute(s));
  for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(mins[i].col, 0u);
}

TEST(ParStaircaseEdge, StrictlyDecreasingFrontier) {
  Rng rng(98);
  const std::size_t m = 60, n = 70;
  const auto a = random_monge(m, n, rng);
  std::vector<std::size_t> f(m);
  for (std::size_t i = 0; i < m; ++i) f[i] = n - i;  // worst case for groups
  Stair s(a, f);
  Machine mach(Model::CRCW_COMMON);
  EXPECT_EQ(staircase_row_minima(mach, s), row_minima_brute(s));
}

/// Each row's canonical segments, in the order segment_jobs emits them,
/// must run in strictly decreasing column order and tile [0, f_i)
/// exactly: staircase_opt's final pick scans them back to front to
/// resolve ties leftmost.
void expect_segments_descend(const std::vector<std::size_t>& f,
                             std::size_t n) {
  Machine mach(Model::CRCW_COMMON);
  const auto jobs = detail::segment_jobs(mach, f, n);
  std::vector<std::vector<detail::SegmentJob>> by_row(f.size());
  for (const auto& job : jobs) {
    ASSERT_LT(job.row0, job.row1);
    ASSERT_LE(job.row1, f.size());
    ASSERT_EQ(job.width, std::size_t{1} << job.level);
    for (std::size_t i = job.row0; i < job.row1; ++i) by_row[i].push_back(job);
  }
  for (std::size_t i = 0; i < f.size(); ++i) {
    const auto& segs = by_row[i];
    const std::string where = "n=" + std::to_string(n) + " row " +
                              std::to_string(i) + " f=" + std::to_string(f[i]);
    std::size_t end = f[i];  // the next segment must end where this starts
    for (std::size_t t = 0; t < segs.size(); ++t) {
      if (t > 0) {
        ASSERT_LT(segs[t].col0, segs[t - 1].col0) << where;
      }
      ASSERT_EQ(segs[t].col0 + segs[t].width, end) << where;
      end = segs[t].col0;
    }
    ASSERT_EQ(end, 0u) << where;
  }
}

TEST(ParStaircaseSegments, EachRowsSegmentsDescendByColumn) {
  Rng rng(104);
  for (int t = 0; t < 40; ++t) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 80));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<std::size_t> f(m);
    for (auto& x : f) {
      x = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n)));
    }
    std::sort(f.rbegin(), f.rend());  // frontiers are non-increasing
    expect_segments_descend(f, n);
    expect_segments_descend(random_staircase_monge(m, n, rng).frontier, n);
  }
  for (const std::size_t n : {1u, 2u, 7u, 64u, 255u, 256u, 1000u}) {
    expect_segments_descend(std::vector<std::size_t>(9, n), n);  // all equal
    expect_segments_descend(std::vector<std::size_t>(9, 0), n);  // all empty
    std::vector<std::size_t> pow2;  // powers of two, and one less
    for (std::size_t w = 1; w <= n; w *= 2) pow2.push_back(w);
    for (std::size_t w = 1; w <= n; w *= 2) pow2.push_back(w - 1);
    std::sort(pow2.rbegin(), pow2.rend());
    expect_segments_descend(pow2, n);
  }
  expect_segments_descend({1, 1, 0}, 1);  // n = 1
  expect_segments_descend({1}, 1);
  expect_segments_descend({0}, 1);
}

TEST(ParStaircaseCost, MaxParallelDepthIsLg) {
  // Theorem 2.3 CRCW row: O(lg n) time.
  Rng rng(99);
  std::vector<SeriesPoint> pts;
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    const auto inst = random_staircase_monge(n, n, rng);
    Stair s(inst.base, inst.frontier);
    Machine mach(Model::CRCW_COMMON);
    staircase_row_minima(mach, s, StaircaseSchedule::MaxParallel);
    pts.push_back({static_cast<double>(n),
                   static_cast<double>(mach.meter().time)});
  }
  EXPECT_TRUE(matches_shape(pts, shape_lg(), 0.5))
      << pts.front().value << " .. " << pts.back().value;
}

TEST(ParStaircaseCost, WorkEfficientProcessorsNearLinear) {
  Rng rng(100);
  for (std::size_t n : {256u, 1024u}) {
    const auto inst = random_staircase_monge(n, n, rng);
    Stair s(inst.base, inst.frontier);
    Machine mach(Model::CRCW_COMMON);
    staircase_row_minima(mach, s, StaircaseSchedule::WorkEfficient);
    EXPECT_LE(mach.meter().peak_processors, 40 * n) << n;
  }
}

TEST(ParStaircaseCost, MaxParallelUsesMoreProcsButLessDepth) {
  Rng rng(101);
  const std::size_t n = 1024;
  const auto inst = random_staircase_monge(n, n, rng);
  Stair s(inst.base, inst.frontier);
  Machine fast(Model::CRCW_COMMON), lean(Model::CRCW_COMMON);
  staircase_row_minima(fast, s, StaircaseSchedule::MaxParallel);
  staircase_row_minima(lean, s, StaircaseSchedule::WorkEfficient);
  EXPECT_LE(fast.meter().time, lean.meter().time);
  EXPECT_GE(fast.meter().peak_processors, lean.meter().peak_processors);
}

TEST(ParStaircase, SubsumesMongeCase) {
  // Tables 1.1/1.2 note the staircase results subsume the Monge ones:
  // a full frontier must not cost more than a constant factor extra.
  Rng rng(102);
  const std::size_t n = 512;
  const auto a = random_monge(n, n, rng);
  Machine plain(Model::CRCW_COMMON), stair(Model::CRCW_COMMON);
  monge_row_minima(plain, a);
  Stair s(a, std::vector<std::size_t>(n, n));
  staircase_row_minima(stair, s);
  EXPECT_LE(stair.meter().time, 4 * plain.meter().time + 40);
}

}  // namespace
}  // namespace pmonge::par
