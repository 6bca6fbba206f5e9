// Host-parallel execution engine tests: the skeletons must cover their
// index ranges exactly once at every chunking, propagate exceptions out
// of pool tasks, and -- the load-bearing invariant -- produce identical
// algorithm outputs AND identical charged costs at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "monge/generators.hpp"
#include "par/monge_rowminima.hpp"
#include "par/staircase_rowminima.hpp"
#include "pram/machine.hpp"
#include "pram/primitives.hpp"
#include "support/rng.hpp"

namespace pmonge {
namespace {

using monge::DenseArray;
using monge::StaircaseArray;
using pram::Machine;
using pram::Model;

/// Restores the global engine size on scope exit so tests that resize the
/// pool cannot leak their setting into later suites.
struct ThreadGuard {
  std::size_t saved = exec::num_threads();
  ~ThreadGuard() { exec::set_num_threads(saved); }
};

// ---------------------------------------------------------------------------
// Skeleton coverage at awkward (n, grain) combinations
// ---------------------------------------------------------------------------

void expect_exact_cover(std::size_t n, std::size_t grain) {
  std::vector<std::atomic<int>> hits(n);
  exec::parallel_for(n, grain, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                 << " index=" << i;
  }
}

TEST(ExecSkeletons, ParallelForCoversRangeOnceAtEveryChunking) {
  ThreadGuard tg;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exec::set_num_threads(threads);
    const std::size_t grain = 4;
    // n straddling every cutoff: empty, single, below/at/above one grain,
    // below/at/above a chunk-count boundary.
    for (std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000}) {
      expect_exact_cover(n, grain);
    }
    expect_exact_cover(100, 0);  // grain 0 is clamped to 1, not a crash
    expect_exact_cover(5, 1000);  // grain > n: one chunk
  }
}

TEST(ExecSkeletons, ReduceScanPackMatchSerialReference) {
  ThreadGuard tg;
  Rng rng(77);
  std::vector<std::int64_t> xs(501);
  for (auto& x : xs) x = rng.uniform_int(-50, 50);

  // Serial references.
  const std::int64_t want_sum = std::accumulate(xs.begin(), xs.end(), 0ll);
  std::vector<std::int64_t> want_excl(xs.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    want_excl[i] = acc;
    acc += xs[i];
  }
  std::vector<std::int64_t> want_incl = xs;
  for (std::size_t i = 1; i < want_incl.size(); ++i) {
    want_incl[i] += want_incl[i - 1];
  }
  std::vector<std::size_t> want_pack;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] % 3 == 0) want_pack.push_back(i);
  }

  auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exec::set_num_threads(threads);
    for (std::size_t grain : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{4096}}) {
      EXPECT_EQ(exec::parallel_reduce(
                    xs.size(), grain, std::int64_t{0},
                    [&](std::size_t i) { return xs[i]; }, plus),
                want_sum)
          << threads << "t grain " << grain;

      auto ex = xs;
      EXPECT_EQ(exec::parallel_scan_exclusive(
                    std::span<std::int64_t>(ex), grain, plus, std::int64_t{0}),
                want_sum);
      EXPECT_EQ(ex, want_excl) << threads << "t grain " << grain;

      auto in = xs;
      EXPECT_EQ(exec::parallel_scan_inclusive(std::span<std::int64_t>(in),
                                              grain, plus),
                want_sum);
      EXPECT_EQ(in, want_incl) << threads << "t grain " << grain;

      EXPECT_EQ(exec::parallel_pack(xs.size(), grain,
                                    [&](std::size_t i) {
                                      return xs[i] % 3 == 0;
                                    }),
                want_pack)
          << threads << "t grain " << grain;
    }
  }
}

TEST(ExecSkeletons, EmptyAndSingletonInputs) {
  auto plus = [](int a, int b) { return a + b; };
  EXPECT_EQ(exec::parallel_reduce(
                0, 4, 41, [](std::size_t) { return 1; }, plus),
            41);  // identity untouched
  std::vector<int> empty;
  EXPECT_EQ(exec::parallel_scan_exclusive(std::span<int>(empty), 4, plus, 7),
            7);
  EXPECT_TRUE(exec::parallel_pack(0, 4, [](std::size_t) { return true; })
                  .empty());
  std::vector<int> one{5};
  EXPECT_EQ(exec::parallel_scan_inclusive(std::span<int>(one), 4, plus), 5);
  EXPECT_EQ(one[0], 5);
}

// ---------------------------------------------------------------------------
// Exception propagation
// ---------------------------------------------------------------------------

TEST(ExecPool, BodyExceptionRethrownOnCaller) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  EXPECT_THROW(
      exec::parallel_for(10000, 16,
                         [](std::size_t i) {
                           if (i == 7777) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(ExecPool, PoolUsableAfterException) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(exec::parallel_for(
                     5000, 8,
                     [](std::size_t i) {
                       if (i % 1000 == 999) throw std::invalid_argument("x");
                     }),
                 std::invalid_argument);
    // The engine must have drained the failed batch completely; follow-up
    // work runs normally and sees every index.
    std::atomic<std::size_t> seen{0};
    exec::parallel_for(5000, 8, [&](std::size_t) {
      seen.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(seen.load(), 5000u);
  }
}

TEST(ExecPool, ModelViolationCrossesPoolBoundary) {
  // The PRAM simulator's enforcement exceptions must survive the trip
  // through the worker pool with their type intact.
  ThreadGuard tg;
  exec::set_num_threads(8);
  Machine m(Model::CREW);
  EXPECT_THROW(
      m.parallel_branches(64,
                          [&](std::size_t b, Machine&) {
                            if (b == 63) throw ModelViolation("rigged");
                          }),
      ModelViolation);
}

// ---------------------------------------------------------------------------
// set_num_threads API
// ---------------------------------------------------------------------------

TEST(ExecPool, SetNumThreadsResizesAndClampsToOne) {
  ThreadGuard tg;
  exec::set_num_threads(3);
  EXPECT_EQ(exec::num_threads(), 3u);
  exec::set_num_threads(0);  // clamped: at least the submitting lane
  EXPECT_EQ(exec::num_threads(), 1u);
  exec::set_num_threads(1);
  EXPECT_EQ(exec::num_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts: identical outputs, identical charges
// ---------------------------------------------------------------------------

struct Cost {
  std::uint64_t time, work, peak;
  bool operator==(const Cost&) const = default;
};

Cost cost_of(const Machine& m) {
  return {m.meter().time, m.meter().work, m.meter().peak_processors};
}

TEST(ExecDeterminism, MongeRowMinimaIdenticalAt1And8Threads) {
  ThreadGuard tg;
  Rng rng(4242);
  const auto a = monge::random_monge(200, 200, rng, 2, 9);  // tie-heavy

  exec::set_num_threads(1);
  Machine m1(Model::CRCW_COMMON);
  const auto r1 = par::monge_row_minima(m1, a);

  exec::set_num_threads(8);
  Machine m8(Model::CRCW_COMMON);
  const auto r8 = par::monge_row_minima(m8, a);

  EXPECT_EQ(r1, r8);
  EXPECT_EQ(cost_of(m1), cost_of(m8));
}

TEST(ExecDeterminism, StaircaseSchedulesIdenticalAt1And8Threads) {
  ThreadGuard tg;
  Rng rng(515);
  const auto inst = monge::random_staircase_monge(120, 140, rng);
  StaircaseArray<DenseArray<std::int64_t>> s(inst.base, inst.frontier);

  for (auto sched :
       {par::StaircaseSchedule::MaxParallel,
        par::StaircaseSchedule::WorkEfficient,
        par::StaircaseSchedule::ColumnSplit}) {
    exec::set_num_threads(1);
    Machine m1(Model::CRCW_COMMON);
    const auto r1 = par::staircase_row_minima(m1, s, sched);

    exec::set_num_threads(8);
    Machine m8(Model::CRCW_COMMON);
    const auto r8 = par::staircase_row_minima(m8, s, sched);

    EXPECT_EQ(r1, r8) << static_cast<int>(sched);
    EXPECT_EQ(cost_of(m1), cost_of(m8)) << static_cast<int>(sched);
  }
}

TEST(ExecDeterminism, PramPrimitivesIdenticalAt1And8Threads) {
  ThreadGuard tg;
  Rng rng(616);
  std::vector<std::int64_t> xs(3000);
  for (auto& x : xs) x = rng.uniform_int(0, 20);  // many argopt ties

  auto run = [&](Machine& m) {
    auto mn = pram::argopt<std::int64_t>(
        m, xs.size(), [&](std::size_t i) { return xs[i]; },
        [](const std::int64_t& a, const std::int64_t& b) { return a < b; });
    auto scanned = xs;
    pram::inclusive_scan_par<std::int64_t>(m, scanned,
                                           std::plus<std::int64_t>{});
    auto packed = pram::pack_indices(
        m, xs.size(), [&](std::size_t i) { return xs[i] % 2 == 0; });
    return std::tuple{mn.value, mn.index, scanned, packed};
  };

  exec::set_num_threads(1);
  Machine m1(Model::CRCW_COMMON);
  const auto r1 = run(m1);

  exec::set_num_threads(8);
  Machine m8(Model::CRCW_COMMON);
  const auto r8 = run(m8);

  EXPECT_EQ(r1, r8);
  EXPECT_EQ(cost_of(m1), cost_of(m8));
}

// ---------------------------------------------------------------------------
// SerialScope
// ---------------------------------------------------------------------------

TEST(ExecScopes, SerialScopeNestsAndRestores) {
  EXPECT_EQ(exec::serial_scope_depth(), 0u);
  {
    exec::SerialScope outer;
    EXPECT_EQ(exec::serial_scope_depth(), 1u);
    {
      exec::SerialScope inner;
      EXPECT_EQ(exec::serial_scope_depth(), 2u);
    }
    EXPECT_EQ(exec::serial_scope_depth(), 1u);
  }
  EXPECT_EQ(exec::serial_scope_depth(), 0u);
}

TEST(ExecScopes, SerialScopeRunsOnTheCallingThread) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  const auto me = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  exec::SerialScope serial;
  exec::parallel_for(10000, 16, [&](std::size_t) {
    if (std::this_thread::get_id() != me) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ExecScopes, SerialScopeLeavesResultsAndChargesUnchanged) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  Rng rng(77);
  const auto a = monge::random_monge(40, 40, rng);
  Machine m_par(Model::CRCW_COMMON);
  const auto r_par = par::monge_row_minima(m_par, a);
  Machine m_ser(Model::CRCW_COMMON);
  exec::SerialScope serial;
  const auto r_ser = par::monge_row_minima(m_ser, a);
  ASSERT_EQ(r_par.size(), r_ser.size());
  for (std::size_t i = 0; i < r_par.size(); ++i) {
    EXPECT_EQ(r_par[i].value, r_ser[i].value) << i;
    EXPECT_EQ(r_par[i].col, r_ser[i].col) << i;
  }
  // The simulated-PRAM meter charges the model's cost, not the host
  // schedule's: execution strategy must be invisible in it.
  EXPECT_EQ(m_par.meter().time, m_ser.meter().time);
  EXPECT_EQ(m_par.meter().work, m_ser.meter().work);
}

// ---------------------------------------------------------------------------
// The fork rule: predicted work at most kappa runs in place, more forks
// ---------------------------------------------------------------------------

/// Pool batches submitted while `f` runs.
template <class F>
std::uint64_t batches_during(F&& f) {
  const std::uint64_t b0 = exec::pool_stats().batches;
  f();
  return exec::pool_stats().batches - b0;
}

TEST(ForkRule, ChunkSizesFollowKappa) {
  EXPECT_EQ(exec::grain_for(1), exec::kForkWork);
  EXPECT_EQ(exec::grain_for(4), exec::kForkWork / 4);  // cost hint divides
  EXPECT_EQ(exec::grain_for(exec::kForkWork + 1), 1u);  // never below 1
  // A fork predicted at most kappa is one chunk of all its tasks ...
  EXPECT_EQ(exec::task_grain(3, exec::kForkWork - 1), 3u);
  EXPECT_EQ(exec::task_grain(3, exec::kForkWork), 3u);
  // ... and one predicted above it always leaves at least two chunks.
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{64}}) {
    const std::size_t g = exec::task_grain(n, exec::kForkWork + 1);
    EXPECT_GE(g, 1u);
    EXPECT_GE((n + g - 1) / g, 2u) << n;
  }
}

TEST(ForkRule, BranchesStraddlingKappa) {
  // The same 3-branch fork predicted just below, at and just above
  // kappa: identical results and charges at 1 and 8 threads; the pool
  // sees it only above kappa.
  ThreadGuard tg;
  for (std::uint64_t work :
       {exec::kForkWork - 1, exec::kForkWork, exec::kForkWork + 1}) {
    auto run = [&](std::vector<int>& out) {
      Machine m(Model::CRCW_COMMON);
      m.parallel_branches(3, work, [&](std::size_t b, Machine& sub) {
        sub.meter().charge(b + 1, 10 * (b + 1));
        out[b] = static_cast<int>(b * b);
      });
      return cost_of(m);
    };
    exec::set_num_threads(1);
    std::vector<int> r1(3);
    const Cost c1 = run(r1);
    exec::set_num_threads(8);
    std::vector<int> r8(3);
    Cost c8{};
    const std::uint64_t batches = batches_during([&] { c8 = run(r8); });
    EXPECT_EQ(r1, r8) << work;
    EXPECT_EQ(c1, c8) << work;
    EXPECT_EQ(c1, (Cost{3, 140, 60})) << work;
    if (work <= exec::kForkWork) {
      EXPECT_EQ(batches, 0u) << work;
    } else {
      EXPECT_GE(batches, 1u) << work;
    }
  }
}

TEST(ForkRule, ArgoptStraddlingKappa) {
  // argopt's pass chunks at grain_for(2): 2 * 2500 = kappa runs in place,
  // 2501 candidates fork.  Winner and charges never move.
  ThreadGuard tg;
  Rng rng(91);
  std::vector<std::int64_t> xs(exec::kForkWork / 2 + 1);
  for (auto& x : xs) x = rng.uniform_int(0, 9);  // many ties
  for (std::size_t n : {xs.size() - 2, xs.size() - 1, xs.size()}) {
    auto run = [&] {
      Machine m(Model::CRCW_COMMON);
      const auto r = pram::argopt<std::int64_t>(
          m, n, [&](std::size_t i) { return xs[i]; },
          [](const std::int64_t& a, const std::int64_t& b) { return a < b; });
      return std::tuple{r.value, r.index, cost_of(m)};
    };
    exec::set_num_threads(1);
    const auto r1 = run();
    exec::set_num_threads(8);
    std::tuple<std::int64_t, std::size_t, Cost> r8;
    const std::uint64_t batches = batches_during([&] { r8 = run(); });
    EXPECT_EQ(r1, r8) << n;
    if (2 * n <= exec::kForkWork) {
      EXPECT_EQ(batches, 0u) << n;
    } else {
      EXPECT_EQ(batches, 1u) << n;
    }
  }
}

TEST(ForkRule, RowSearchesStraddlingKappa) {
  // Four-row searches fork their rows with scan_work(4, n) = 28n
  // predicted: 178 columns sit just below kappa (4984), 179 just above
  // (5012).  Squares of side 59 and 60 put the whole recursion's
  // rowmin_work either side of kappa; 256 is far above.  Bytes and
  // charges must match 1 thread exactly everywhere.
  ThreadGuard tg;
  Rng rng(92);
  static_assert(7 * 4 * 178 < exec::kForkWork &&
                7 * 4 * 179 > exec::kForkWork);
  const std::vector<std::size_t> four = {3, 17, 40, 63};
  for (std::size_t n : {std::size_t{178}, std::size_t{179}}) {
    const auto a = monge::random_monge(64, n, rng, 2, 9);
    auto run = [&] {
      Machine m(Model::CRCW_COMMON);
      auto r = par::monge_row_minima_rows(m, a, four);
      return std::pair{r, cost_of(m)};
    };
    exec::set_num_threads(1);
    const auto r1 = run();
    exec::set_num_threads(8);
    std::pair<std::vector<monge::RowOpt<std::int64_t>>, Cost> r8;
    const std::uint64_t batches = batches_during([&] { r8 = run(); });
    EXPECT_EQ(r1, r8) << n;
    if (par::scan_work(four.size(), n) <= exec::kForkWork) {
      EXPECT_EQ(batches, 0u) << n;
    } else {
      EXPECT_GE(batches, 1u) << n;
    }
  }
  EXPECT_LT(par::rowmin_work(59, 59), exec::kForkWork);
  EXPECT_GT(par::rowmin_work(60, 60), exec::kForkWork);
  for (std::size_t side : {std::size_t{59}, std::size_t{60}, std::size_t{256}}) {
    const auto a = monge::random_monge(side, side, rng, 2, 9);
    auto run = [&] {
      Machine m(Model::CRCW_COMMON);
      auto r = par::monge_row_minima(m, a);
      return std::pair{r, cost_of(m)};
    };
    exec::set_num_threads(1);
    const auto r1 = run();
    exec::set_num_threads(8);
    std::pair<std::vector<monge::RowOpt<std::int64_t>>, Cost> r8;
    const std::uint64_t batches = batches_during([&] { r8 = run(); });
    EXPECT_EQ(r1, r8) << side;
    if (side == 59) {
      EXPECT_EQ(batches, 0u);
    } else if (side == 256) {
      EXPECT_GE(batches, 1u);
    }
  }
}

TEST(ExecDeterminism, LeftmostTiePolicySurvivesChunking) {
  // An all-equal array: every index ties, the winner must be index 0 at
  // every thread count and every chunking.
  ThreadGuard tg;
  for (std::size_t threads : {std::size_t{1}, std::size_t{5}}) {
    exec::set_num_threads(threads);
    Machine m(Model::CRCW_COMMON);
    auto r = pram::argopt<int>(
        m, 10007, [](std::size_t) { return 42; },
        [](const int& a, const int& b) { return a < b; });
    EXPECT_EQ(r.index, 0u) << threads;
    EXPECT_EQ(r.value, 42);
  }
}

}  // namespace
}  // namespace pmonge
