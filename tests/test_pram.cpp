// Unit tests for the PRAM simulator: cost metering, model enforcement
// (CREW conflicts, CRCW-COMMON agreement), primitive correctness, the
// charged depths of argopt under each submodel, and argopt_each's
// one-charge fork against the fork of argopts it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "pram/ansv.hpp"
#include "pram/machine.hpp"
#include "pram/primitives.hpp"
#include "support/rng.hpp"

namespace pmonge::pram {
namespace {

TEST(CostMeter, ChargeAccumulates) {
  CostMeter m;
  m.charge(3, 10);
  m.charge(2, 4);
  EXPECT_EQ(m.time, 5u);
  EXPECT_EQ(m.work, 38u);
  EXPECT_EQ(m.peak_processors, 10u);
}

TEST(CostMeter, ExplicitOps) {
  CostMeter m;
  m.charge(4, 8, 16);  // reduction tree: lg-depth but linear work
  EXPECT_EQ(m.time, 4u);
  EXPECT_EQ(m.work, 16u);
}

TEST(CostMeter, BrentTime) {
  CostMeter m;
  m.charge(10, 100, 1000);
  EXPECT_DOUBLE_EQ(m.brent_time(10), 110.0);
  EXPECT_DOUBLE_EQ(m.brent_time(1000), 11.0);
  EXPECT_THROW(m.brent_time(0), std::invalid_argument);
}

TEST(Machine, ParallelBranchesMaxTimeSumWork) {
  Machine m(Model::CREW);
  m.parallel_branches(3, [&](std::size_t b, Machine& sub) {
    sub.meter().charge(b + 1, 10);  // times 1,2,3; works 10,20,30
  });
  EXPECT_EQ(m.meter().time, 3u);
  EXPECT_EQ(m.meter().work, 60u);
  EXPECT_EQ(m.meter().peak_processors, 30u);
}

TEST(ParallelFor, ExecutesAllAndChargesOneStep) {
  Machine m(Model::CREW);
  std::vector<int> hit(100, 0);
  parallel_for(m, hit.size(), [&](std::size_t i) { hit[i] = 1; });
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), 100);
  EXPECT_EQ(m.meter().time, 1u);
  EXPECT_EQ(m.meter().peak_processors, 100u);
}

TEST(Reduce, SumsCorrectly) {
  Machine m(Model::CREW);
  const auto total = reduce<long long>(
      m, 1000, [](std::size_t i) { return static_cast<long long>(i); },
      std::plus<long long>{}, 0LL);
  EXPECT_EQ(total, 999LL * 1000 / 2);
  EXPECT_EQ(m.meter().time, static_cast<std::uint64_t>(ceil_lg(1000)));
}

TEST(Argopt, FindsLeftmostMinimum) {
  for (Model model : {Model::CREW, Model::CRCW_COMMON, Model::CRCW_ARBITRARY,
                      Model::CRCW_PRIORITY, Model::CRCW_COMBINING}) {
    Machine m(model);
    std::vector<int> xs = {5, 3, 9, 3, 7, 3, 8};
    const auto r = min_element_par<int>(m, xs);
    EXPECT_EQ(r.value, 3) << model_name(model);
    EXPECT_EQ(r.index, 1u) << model_name(model);
  }
}

TEST(Argopt, FindsLeftmostMaximum) {
  Machine m(Model::CRCW_COMMON);
  std::vector<int> xs = {5, 9, 2, 9, 1};
  const auto r = max_element_par<int>(m, xs);
  EXPECT_EQ(r.value, 9);
  EXPECT_EQ(r.index, 1u);
}

TEST(Argopt, RandomAgreesWithStd) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<long long> xs(n);
    for (auto& x : xs) x = rng.uniform_int(-50, 50);
    const auto expect =
        std::min_element(xs.begin(), xs.end()) - xs.begin();
    for (Model model : {Model::CREW, Model::CRCW_COMMON,
                        Model::CRCW_COMBINING}) {
      Machine m(model);
      const auto r = min_element_par<long long>(m, xs);
      EXPECT_EQ(r.index, static_cast<std::size_t>(expect));
      EXPECT_EQ(r.value, xs[static_cast<std::size_t>(expect)]);
    }
  }
}

TEST(Argopt, CrewDepthIsLg) {
  Machine m(Model::CREW);
  std::vector<int> xs(1 << 12, 1);
  xs[100] = 0;
  min_element_par<int>(m, xs);
  EXPECT_EQ(m.meter().time, 12u);
}

TEST(Argopt, CrcwDepthIsDoublyLog) {
  // The doubly-log schedule should finish a 2^16-element argmin in far
  // fewer steps than the lg-depth tree (16), and each round's processor
  // usage must stay within ~2n.
  Machine m(Model::CRCW_COMMON);
  std::vector<int> xs(1 << 16, 7);
  xs[12345] = 1;
  const auto r = min_element_par<int>(m, xs);
  EXPECT_EQ(r.index, 12345u);
  EXPECT_LT(m.meter().time, 14u);          // ~2 lglg n + load, not lg n
  EXPECT_LE(m.meter().peak_processors, 2u * (1 << 16));
}

TEST(Argopt, CombiningDepthIsConstant) {
  Machine m(Model::CRCW_COMBINING);
  std::vector<int> xs(1 << 16, 7);
  xs[4] = 0;
  min_element_par<int>(m, xs);
  EXPECT_EQ(m.meter().time, 1u);
}

/// The CRCW argopt as the simulator executed it before argopt charged the
/// doubly-logarithmic schedule analytically: load every candidate, then
/// run each tournament round for real, charging as it goes.  (COMBINING
/// was one charged step and a leftmost scan then too.)  Kept as the
/// reference the one-pass execution must equal in winner and charges.
template <class T, class Eval, class Less>
OptResult<T> round_by_round_argopt(Machine& m, std::size_t n, Eval&& eval,
                                   Less&& less) {
  auto better = [&](const OptResult<T>& a, const OptResult<T>& b) {
    if (less(a.value, b.value)) return true;
    if (less(b.value, a.value)) return false;
    return a.index < b.index;
  };
  std::vector<OptResult<T>> cand(n);
  m.meter().charge(1, n);  // load candidates
  for (std::size_t i = 0; i < n; ++i) cand[i] = {eval(i), i};
  if (m.model() == Model::CRCW_COMBINING) {
    OptResult<T> best = cand[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (better(cand[i], best)) best = cand[i];
    }
    return best;
  }
  while (cand.size() > 1) {
    const std::size_t s = cand.size();
    std::size_t g = std::max<std::size_t>(2, n / s);
    g = std::min(g, s);
    const std::size_t groups = (s + g - 1) / g;
    m.meter().charge(2, s * g, s * g + s);
    std::vector<OptResult<T>> next(groups);
    for (std::size_t b = 0; b < groups; ++b) {
      const std::size_t lo = b * g;
      const std::size_t hi = std::min(s, lo + g);
      OptResult<T> best = cand[lo];
      for (std::size_t i = lo + 1; i < hi; ++i) {
        if (better(cand[i], best)) best = cand[i];
      }
      next[b] = best;
    }
    cand = std::move(next);
  }
  return cand[0];
}

TEST(Argopt, CrcwOnePassMatchesRoundByRoundReference) {
  Rng rng(2024);
  std::vector<std::int64_t> xs(5000);
  for (auto& x : xs) x = rng.uniform_int(0, 40);  // ties at every size
  auto eval = [&](std::size_t i) { return xs[i]; };
  auto less = [](const std::int64_t& a, const std::int64_t& b) {
    return a < b;
  };
  auto greater = [](const std::int64_t& a, const std::int64_t& b) {
    return b < a;
  };
  for (const Model model : {Model::CRCW_COMMON, Model::CRCW_ARBITRARY,
                            Model::CRCW_PRIORITY, Model::CRCW_COMBINING}) {
    for (std::size_t n = 1; n <= xs.size(); ++n) {
      // Every size runs on a fresh meter and again on one that already
      // holds a charge, so the one-step charge must also fold into a
      // nonzero peak: 3000 processors outlast the schedule's peak for
      // small n and not for large n.
      for (const bool precharged : {false, true}) {
        Machine got_m(model), want_m(model);
        if (precharged) {
          got_m.meter().charge(5, 3000, 7000);
          want_m.meter().charge(5, 3000, 7000);
        }
        const bool maxima = n % 2 == 0;
        const auto got = maxima
                             ? argopt<std::int64_t>(got_m, n, eval, greater)
                             : argopt<std::int64_t>(got_m, n, eval, less);
        const auto want =
            maxima
                ? round_by_round_argopt<std::int64_t>(want_m, n, eval, greater)
                : round_by_round_argopt<std::int64_t>(want_m, n, eval, less);
        const std::string where = std::string(model_name(model)) +
                                  " n=" + std::to_string(n) +
                                  (precharged ? " precharged" : " fresh");
        ASSERT_EQ(got.value, want.value) << where;
        ASSERT_EQ(got.index, want.index) << where;
        ASSERT_EQ(got_m.meter().time, want_m.meter().time) << where;
        ASSERT_EQ(got_m.meter().work, want_m.meter().work) << where;
        ASSERT_EQ(got_m.meter().peak_processors,
                  want_m.meter().peak_processors)
            << where;
      }
    }
  }
}

constexpr Model kAllModels[] = {Model::CREW, Model::CRCW_COMMON,
                                Model::CRCW_ARBITRARY, Model::CRCW_PRIORITY,
                                Model::CRCW_COMBINING};

TEST(ArgoptEach, MatchesForkOfArgopts) {
  // argopt_each charges k argopts of n candidates once, as their parallel
  // composition; it must leave exactly what a parallel_branches fork of k
  // argopt calls leaves -- results and (time, work, peak) -- for every
  // model, on a fresh meter and on one that already holds a charge (3000
  // processors outlast k argopts' peak for small k * n and not for large).
  Rng rng(2026);
  std::vector<std::int64_t> xs(4099);
  for (auto& x : xs) x = rng.uniform_int(0, 40);  // ties at every size
  auto less = [](const std::int64_t& a, const std::int64_t& b) {
    return a < b;
  };
  auto greater = [](const std::int64_t& a, const std::int64_t& b) {
    return b < a;
  };
  auto eval = [&](std::size_t b, std::size_t i) {
    return xs[(b * 131 + i) % xs.size()];
  };
  for (const Model model : kAllModels) {
    for (const std::size_t k : {0u, 1u, 2u, 3u, 1000u}) {
      std::vector<OptResult<std::int64_t>> got(k), want(k);
      for (std::size_t n = 1; n <= 300; ++n) {
        // The fork's prediction: in place for small forks, chunked on
        // the pool for large ones, exactly as parallel_branches runs it.
        const std::uint64_t work = 7 * static_cast<std::uint64_t>(k) * n;
        for (const bool precharged : {false, true}) {
          Machine got_m(model), want_m(model);
          if (precharged) {
            got_m.meter().charge(5, 3000, 7000);
            want_m.meter().charge(5, 3000, 7000);
          }
          std::fill(got.begin(), got.end(), OptResult<std::int64_t>{});
          std::fill(want.begin(), want.end(), OptResult<std::int64_t>{});
          auto run = [&](auto cmp) {
            argopt_each<std::int64_t>(
                got_m, k, n, work, eval, cmp,
                [&](std::size_t b, const OptResult<std::int64_t>& r) {
                  got[b] = r;
                });
            want_m.parallel_branches(k, work, [&](std::size_t b, Machine& sub) {
              want[b] = argopt<std::int64_t>(
                  sub, n, [&](std::size_t i) { return eval(b, i); }, cmp);
            });
          };
          const bool maxima = n % 2 == 0;
          if (maxima) {
            run(greater);
          } else {
            run(less);
          }
          const std::string where = std::string(model_name(model)) +
                                    " k=" + std::to_string(k) +
                                    " n=" + std::to_string(n) +
                                    (precharged ? " precharged" : " fresh");
          for (std::size_t b = 0; b < k; ++b) {
            ASSERT_EQ(got[b].value, want[b].value) << where << " b=" << b;
            ASSERT_EQ(got[b].index, want[b].index) << where << " b=" << b;
          }
          ASSERT_EQ(got_m.meter().time, want_m.meter().time) << where;
          ASSERT_EQ(got_m.meter().work, want_m.meter().work) << where;
          ASSERT_EQ(got_m.meter().peak_processors,
                    want_m.meter().peak_processors)
              << where;
        }
      }
    }
  }
}

TEST(ArgoptEach, EmptyCandidatesChargeNothing) {
  for (const Model model : kAllModels) {
    Machine m(model);
    std::vector<OptResult<int>> got(3, OptResult<int>{7, 7});
    argopt_each<int>(
        m, 3, 0, 0, [](std::size_t, std::size_t) { return 0; },
        [](int a, int b) { return a < b; },
        [&](std::size_t b, const OptResult<int>& r) { got[b] = r; });
    for (const auto& r : got) EXPECT_EQ(r.index, kNoIndex);
    EXPECT_EQ(m.meter().time, 0u);
    EXPECT_EQ(m.meter().work, 0u);
    EXPECT_EQ(m.meter().peak_processors, 0u);
  }
}

/// The in-place argopt sweep as a plain branchy loop: leftmost strict
/// improvement, each candidate evaluated once.
template <class T, class Less>
OptResult<T> branchy_argopt(const std::vector<T>& xs, Less less) {
  OptResult<T> best{xs[0], 0};
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (less(xs[i], best.value)) best = {xs[i], i};
  }
  return best;
}

/// Bitwise equality: tells -0.0 from 0.0 and matches NaN with itself.
template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Every sweep-sized argopt of `pool`'s prefixes and of random draws from
/// it, under both comparators and every model, against branchy_argopt.
template <class T>
void check_sweep_against_branchy(const std::vector<T>& pool,
                                 std::uint64_t seed) {
  auto less = [](const T& a, const T& b) { return a < b; };
  auto greater = [](const T& a, const T& b) { return b < a; };
  Rng rng(seed);
  std::vector<std::vector<T>> cases;
  for (std::size_t n = 1; n <= pool.size(); ++n) {
    cases.emplace_back(pool.begin(), pool.begin() + n);
  }
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<T> xs(1 + static_cast<std::size_t>(rng.uniform_int(0, 63)));
    for (auto& x : xs) {
      x = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    cases.push_back(std::move(xs));
  }
  for (const auto& xs : cases) {
    const auto eval = [&](std::size_t i) { return xs[i]; };
    const auto want_min = branchy_argopt(xs, less);
    const auto want_max = branchy_argopt(xs, greater);
    for (const Model model : kAllModels) {
      Machine m(model);
      const auto got_min = argopt<T>(m, xs.size(), eval, less);
      const auto got_max = argopt<T>(m, xs.size(), eval, greater);
      ASSERT_EQ(got_min.index, want_min.index) << model_name(model);
      ASSERT_TRUE(same_bits(got_min.value, want_min.value));
      ASSERT_EQ(got_max.index, want_max.index) << model_name(model);
      ASSERT_TRUE(same_bits(got_max.value, want_max.value));
    }
  }
}

TEST(ArgoptSweep, DoublesMatchBranchyReference) {
  // Ties, signed zeros (equal under <, so the leftmost must win whatever
  // its sign), NaNs (never less, never beaten) and infinities.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  check_sweep_against_branchy<double>(
      {0.0, -0.0, nan, 1.5, -0.0, 0.0, nan, -inf, inf, -2.0, -2.0, 1.5,
       -inf, nan, 0.0},
      31);
  Machine m(Model::CRCW_COMMON);
  const std::vector<double> zeros = {0.0, -0.0, 0.0};
  const auto r = min_element_par<double>(m, zeros);
  EXPECT_EQ(r.index, 0u);
  EXPECT_FALSE(std::signbit(r.value));
  const std::vector<double> lead_nan = {nan, 3.0, 1.0};
  EXPECT_EQ(min_element_par<double>(m, lead_nan).index, 0u);
  const std::vector<double> mid_nan = {3.0, nan, 1.0, nan};
  EXPECT_EQ(min_element_par<double>(m, mid_nan).index, 2u);
}

TEST(ArgoptSweep, Int64ExtremesMatchBranchyReference) {
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  check_sweep_against_branchy<std::int64_t>(
      {hi, lo, 0, -1, lo, hi, 1, lo + 1, hi - 1, 0, hi, lo}, 32);
}

TEST(Scans, ExclusiveScanMatchesSequential) {
  Machine m(Model::CREW);
  std::vector<long long> xs = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto total =
      exclusive_scan_par<long long>(m, xs, std::plus<long long>{}, 0LL);
  EXPECT_EQ(total, 31);
  const std::vector<long long> expect = {0, 3, 4, 8, 9, 14, 23, 25};
  EXPECT_EQ(xs, expect);
  EXPECT_EQ(m.meter().time, 2u * ceil_lg(8));
}

TEST(Scans, InclusiveScan) {
  Machine m(Model::CREW);
  std::vector<long long> xs = {1, 2, 3, 4};
  inclusive_scan_par<long long>(m, xs, std::plus<long long>{});
  const std::vector<long long> expect = {1, 3, 6, 10};
  EXPECT_EQ(xs, expect);
}

TEST(ScatterWrite, CrewConflictThrows) {
  Machine m(Model::CREW);
  std::vector<int> cells(4, 0);
  std::vector<WriteIntent<int>> w = {{0, 2, 5}, {1, 2, 6}};
  EXPECT_THROW(scatter_write<int>(m, cells, w), ModelViolation);
}

TEST(ScatterWrite, CrewDisjointWritesSucceed) {
  Machine m(Model::CREW);
  std::vector<int> cells(4, 0);
  std::vector<WriteIntent<int>> w = {{0, 1, 5}, {1, 3, 6}};
  scatter_write<int>(m, cells, w);
  EXPECT_EQ(cells[1], 5);
  EXPECT_EQ(cells[3], 6);
}

TEST(ScatterWrite, CommonAgreeingWritesSucceed) {
  Machine m(Model::CRCW_COMMON);
  std::vector<int> cells(2, 0);
  std::vector<WriteIntent<int>> w = {{0, 0, 7}, {1, 0, 7}, {2, 0, 7}};
  scatter_write<int>(m, cells, w);
  EXPECT_EQ(cells[0], 7);
}

TEST(ScatterWrite, CommonDisagreementThrows) {
  Machine m(Model::CRCW_COMMON);
  std::vector<int> cells(2, 0);
  std::vector<WriteIntent<int>> w = {{0, 0, 7}, {1, 0, 8}};
  EXPECT_THROW(scatter_write<int>(m, cells, w), ModelViolation);
}

TEST(ScatterWrite, PriorityLowestProcWins) {
  Machine m(Model::CRCW_PRIORITY);
  std::vector<int> cells(1, 0);
  std::vector<WriteIntent<int>> w = {{5, 0, 50}, {2, 0, 20}, {9, 0, 90}};
  scatter_write<int>(m, cells, w);
  EXPECT_EQ(cells[0], 20);
}

TEST(ScatterWrite, CombiningFoldsMin) {
  Machine m(Model::CRCW_COMBINING);
  std::vector<int> cells(1, 100);
  std::vector<WriteIntent<int>> w = {{0, 0, 9}, {1, 0, 3}, {2, 0, 7}};
  scatter_write<int>(m, cells, w,
                     [](int a, int b) { return std::min(a, b); });
  EXPECT_EQ(cells[0], 3);
}

TEST(ScatterWrite, OutOfRangeRejected) {
  Machine m(Model::CREW);
  std::vector<int> cells(2, 0);
  std::vector<WriteIntent<int>> w = {{0, 5, 1}};
  EXPECT_THROW(scatter_write<int>(m, cells, w), std::invalid_argument);
}

TEST(Pack, KeepsFlaggedIndicesInOrder) {
  Machine m(Model::CREW);
  const auto idx =
      pack_indices(m, 10, [](std::size_t i) { return i % 3 == 0; });
  const std::vector<std::size_t> expect = {0, 3, 6, 9};
  EXPECT_EQ(idx, expect);
}

TEST(Merge, MergesSorted) {
  Machine m(Model::CREW);
  std::vector<int> a = {1, 4, 6}, b = {2, 3, 7, 9};
  const auto out =
      parallel_merge<int>(m, a, b, [](int x, int y) { return x < y; });
  const std::vector<int> expect = {1, 2, 3, 4, 6, 7, 9};
  EXPECT_EQ(out, expect);
  EXPECT_EQ(m.meter().time, static_cast<std::uint64_t>(ceil_lg(7)));
}

TEST(Sort, MergeSortSortsStably) {
  Machine m(Model::CREW);
  Rng rng(3);
  std::vector<std::pair<int, int>> xs;  // (key, original position)
  for (int i = 0; i < 500; ++i) {
    xs.emplace_back(static_cast<int>(rng.uniform_int(0, 20)), i);
  }
  merge_sort_par(m, xs, [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_LE(xs[i - 1].first, xs[i].first);
    if (xs[i - 1].first == xs[i].first) {
      EXPECT_LT(xs[i - 1].second, xs[i].second);  // stability
    }
  }
  const auto lgn = static_cast<std::uint64_t>(ceil_lg(500));
  EXPECT_EQ(m.meter().time, lgn * lgn);
}

TEST(Sort, RadixSortsBoundedKeys) {
  Machine m(Model::CREW);
  Rng rng(4);
  std::vector<std::uint32_t> xs(300);
  for (auto& x : xs) x = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
  radix_sort_par(m, xs, [](std::uint32_t x) { return x; }, 8);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  // 8 bits * O(lg n) steps.
  EXPECT_LE(m.meter().time, 8u * (2 * ceil_lg(300) + 2));
}

// --- ANSV ------------------------------------------------------------

TEST(Ansv, SmallExample) {
  std::vector<std::int64_t> a = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto r = ansv_seq(a);
  const auto none = AnsvResult::kNone;
  const std::vector<std::size_t> left = {none, none, 1, none, 3, 4, 3, 6};
  const std::vector<std::size_t> right = {1, none, 3, none, 6, 6, none, none};
  EXPECT_EQ(r.left, left);
  EXPECT_EQ(r.right, right);
}

TEST(Ansv, ParallelMatchesSequentialRandom) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 500));
    std::vector<std::int64_t> a(n);
    for (auto& x : a) x = rng.uniform_int(0, 40);
    Machine m(Model::CREW);
    const auto par = ansv(m, a);
    const auto seq = ansv_seq(a);
    EXPECT_EQ(par.left, seq.left);
    EXPECT_EQ(par.right, seq.right);
  }
}

TEST(Ansv, ChargedDepthIsLogarithmic) {
  Machine m(Model::CREW);
  std::vector<std::int64_t> a(1 << 14);
  Rng rng(6);
  for (auto& x : a) x = rng.uniform_int(0, 1000);
  ansv(m, a);
  // O(lg n): generously below, say, 8 lg n.
  EXPECT_LE(m.meter().time, 8u * 14u);
  EXPECT_GE(m.meter().peak_processors, a.size() / 2);
}

TEST(Ansv, BruteForceCrossCheck) {
  Rng rng(9);
  const std::size_t n = 64;
  std::vector<std::int64_t> a(n);
  for (auto& x : a) x = rng.uniform_int(0, 8);
  const auto r = ansv_seq(a);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t left = AnsvResult::kNone;
    for (std::size_t j = i; j-- > 0;) {
      if (a[j] < a[i]) {
        left = j;
        break;
      }
    }
    std::size_t right = AnsvResult::kNone;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (a[j] < a[i]) {
        right = j;
        break;
      }
    }
    EXPECT_EQ(r.left[i], left) << i;
    EXPECT_EQ(r.right[i], right) << i;
  }
}

}  // namespace
}  // namespace pmonge::pram
