// Pins the absolute charged PRAM cost -- parallel time, work and peak
// processors -- of every paper kernel entry point on fixed seeded inputs,
// on CRCW-COMMON and CREW, at 1 and 8 host threads.  The other suites
// compare thread counts against each other, which a host-side refactor
// that shifted every charge the same way would pass; this table would
// not.  The expected rows were recorded once from the kernels before
// their host execution was made allocation-free, and must never move
// unless a kernel's *simulated* algorithm changes on purpose.
//
// Also gates that host execution: after warm-up, a row minima, staircase
// or tube maxima call allocates only the vector it returns (the
// recursion, the staircase assembly and the tube slices run on scratch).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "monge/generators.hpp"
#include "par/monge_rowminima.hpp"
#include "par/staircase_rowminima.hpp"
#include "par/tube_maxima.hpp"
#include "pram/machine.hpp"
#include "support/rng.hpp"

// --------------------------------------------------------------------------
// Global operator-new hook: counts allocations on every thread, since a
// kernel's branches run on whichever pool lane claims them.
// --------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pmonge::par {
namespace {

using monge::DenseArray;
using pram::Machine;
using pram::Model;

struct Expected {
  const char* name;
  Model model;
  std::uint64_t time, work, peak;
};

// clang-format off
constexpr Expected kExpected[] = {
  {"monge_row_minima 1x1", Model::CRCW_COMMON, 1, 1, 1},
  {"monge_row_minima 1x1", Model::CREW, 0, 2, 1},
  {"monge_row_maxima 1x1", Model::CRCW_COMMON, 1, 1, 1},
  {"monge_row_maxima 1x1", Model::CREW, 0, 2, 1},
  {"inverse_monge_row_minima 1x1", Model::CRCW_COMMON, 1, 1, 1},
  {"inverse_monge_row_minima 1x1", Model::CREW, 0, 2, 1},
  {"inverse_monge_row_maxima 1x1", Model::CRCW_COMMON, 1, 1, 1},
  {"inverse_monge_row_maxima 1x1", Model::CREW, 0, 2, 1},
  {"monge_row_minima 3x50", Model::CRCW_COMMON, 9, 1071, 300},
  {"monge_row_minima 3x50", Model::CREW, 6, 300, 75},
  {"monge_row_maxima 3x50", Model::CRCW_COMMON, 9, 1071, 300},
  {"monge_row_maxima 3x50", Model::CREW, 6, 300, 75},
  {"inverse_monge_row_minima 3x50", Model::CRCW_COMMON, 9, 1071, 300},
  {"inverse_monge_row_minima 3x50", Model::CREW, 6, 300, 75},
  {"inverse_monge_row_maxima 3x50", Model::CRCW_COMMON, 9, 1071, 300},
  {"inverse_monge_row_maxima 3x50", Model::CREW, 6, 300, 75},
  {"monge_row_minima 50x3", Model::CRCW_COMMON, 5, 900, 300},
  {"monge_row_minima 50x3", Model::CREW, 2, 300, 100},
  {"monge_row_maxima 50x3", Model::CRCW_COMMON, 5, 900, 300},
  {"monge_row_maxima 50x3", Model::CREW, 2, 300, 100},
  {"inverse_monge_row_minima 50x3", Model::CRCW_COMMON, 5, 900, 300},
  {"inverse_monge_row_minima 50x3", Model::CREW, 2, 300, 100},
  {"inverse_monge_row_maxima 50x3", Model::CRCW_COMMON, 5, 900, 300},
  {"inverse_monge_row_maxima 50x3", Model::CREW, 2, 300, 100},
  {"monge_row_minima 17x17", Model::CRCW_COMMON, 20, 874, 136},
  {"monge_row_minima 17x17", Model::CREW, 12, 275, 37},
  {"monge_row_maxima 17x17", Model::CRCW_COMMON, 20, 710, 136},
  {"monge_row_maxima 17x17", Model::CREW, 11, 227, 36},
  {"inverse_monge_row_minima 17x17", Model::CRCW_COMMON, 18, 852, 136},
  {"inverse_monge_row_minima 17x17", Model::CREW, 11, 267, 36},
  {"inverse_monge_row_maxima 17x17", Model::CRCW_COMMON, 20, 846, 136},
  {"inverse_monge_row_maxima 17x17", Model::CREW, 11, 267, 36},
  {"monge_row_minima 64x200", Model::CRCW_COMMON, 35, 23420, 3240},
  {"monge_row_minima 64x200", Model::CREW, 17, 7838, 980},
  {"monge_row_maxima 64x200", Model::CRCW_COMMON, 35, 23294, 3233},
  {"monge_row_maxima 64x200", Model::CREW, 17, 7796, 966},
  {"inverse_monge_row_minima 64x200", Model::CRCW_COMMON, 35, 23427, 3233},
  {"inverse_monge_row_minima 64x200", Model::CREW, 17, 7852, 980},
  {"inverse_monge_row_maxima 64x200", Model::CRCW_COMMON, 35, 23343, 3240},
  {"inverse_monge_row_maxima 64x200", Model::CREW, 17, 7810, 966},
  {"monge_row_minima 200x64", Model::CRCW_COMMON, 43, 7985, 837},
  {"monge_row_minima 200x64", Model::CREW, 24, 2994, 259},
  {"monge_row_maxima 200x64", Model::CRCW_COMMON, 43, 7936, 837},
  {"monge_row_maxima 200x64", Model::CREW, 24, 2980, 259},
  {"inverse_monge_row_minima 200x64", Model::CRCW_COMMON, 43, 7965, 837},
  {"inverse_monge_row_minima 200x64", Model::CREW, 24, 2990, 259},
  {"inverse_monge_row_maxima 200x64", Model::CRCW_COMMON, 43, 7945, 837},
  {"inverse_monge_row_maxima 200x64", Model::CREW, 22, 2986, 259},
  {"monge_row_minima 256x256", Model::CRCW_COMMON, 59, 30293, 2790},
  {"monge_row_minima 256x256", Model::CREW, 32, 10301, 1005},
  {"monge_row_maxima 256x256", Model::CRCW_COMMON, 59, 30646, 2896},
  {"monge_row_maxima 256x256", Model::CREW, 32, 10331, 1016},
  {"inverse_monge_row_minima 256x256", Model::CRCW_COMMON, 59, 30614, 2927},
  {"inverse_monge_row_minima 256x256", Model::CREW, 32, 10315, 1009},
  {"inverse_monge_row_maxima 256x256", Model::CRCW_COMMON, 59, 30288, 2790},
  {"inverse_monge_row_maxima 256x256", Model::CREW, 32, 10293, 1005},
  {"monge_row_minima_rows 150x90/3", Model::CRCW_COMMON, 45, 8658, 1111},
  {"monge_row_minima_rows 150x90/3", Model::CREW, 24, 3008, 326},
  {"monge_row_maxima_rows 150x90/3", Model::CRCW_COMMON, 43, 8639, 1111},
  {"monge_row_maxima_rows 150x90/3", Model::CREW, 25, 2992, 326},
  {"inverse_monge_row_minima_rows 150x90/3", Model::CRCW_COMMON, 45, 8560, 1111},
  {"inverse_monge_row_minima_rows 150x90/3", Model::CREW, 25, 2978, 326},
  {"inverse_monge_row_maxima_rows 150x90/3", Model::CRCW_COMMON, 43, 8618, 1111},
  {"inverse_monge_row_maxima_rows 150x90/3", Model::CREW, 24, 3002, 326},
  {"monge_row_minima_rows 300x40/2", Model::CRCW_COMMON, 43, 5202, 660},
  {"monge_row_minima_rows 300x40/2", Model::CREW, 22, 1924, 205},
  {"monge_row_maxima_rows 300x40/2", Model::CRCW_COMMON, 43, 5191, 660},
  {"monge_row_maxima_rows 300x40/2", Model::CREW, 22, 1926, 210},
  {"inverse_monge_row_minima_rows 300x40/2", Model::CRCW_COMMON, 43, 5255, 660},
  {"inverse_monge_row_minima_rows 300x40/2", Model::CREW, 21, 1934, 210},
  {"inverse_monge_row_maxima_rows 300x40/2", Model::CRCW_COMMON, 43, 5222, 660},
  {"inverse_monge_row_maxima_rows 300x40/2", Model::CREW, 22, 1934, 210},
  {"staircase_row_minima max_parallel 64x64", Model::CRCW_COMMON, 67, 7782, 1330},
  {"staircase_row_minima max_parallel 64x64", Model::CREW, 46, 3615, 355},
  {"staircase_row_minima work_efficient 64x64", Model::CRCW_COMMON, 103, 7782, 480},
  {"staircase_row_minima work_efficient 64x64", Model::CREW, 65, 3615, 128},
  {"staircase_row_minima column_split 64x64", Model::CRCW_COMMON, 88, 7318, 608},
  {"staircase_row_minima column_split 64x64", Model::CREW, 57, 3771, 152},
  {"staircase_row_minima max_parallel 257x257", Model::CRCW_COMMON, 80, 41484, 5543},
  {"staircase_row_minima max_parallel 257x257", Model::CREW, 56, 18830, 1811},
  {"staircase_row_minima work_efficient 257x257", Model::CRCW_COMMON, 208, 41484, 2266},
  {"staircase_row_minima work_efficient 257x257", Model::CREW, 124, 18830, 642},
  {"staircase_row_minima column_split 257x257", Model::CRCW_COMMON, 200, 40121, 2833},
  {"staircase_row_minima column_split 257x257", Model::CREW, 129, 22990, 741},
  {"tube_maxima per_slice 16^3", Model::CRCW_COMMON, 19, 12542, 2048},
  {"tube_maxima per_slice 16^3", Model::CREW, 11, 4240, 527},
  {"tube_maxima sampled 16^3", Model::CRCW_COMMON, 14, 9317, 1982},
  {"tube_maxima sampled 16^3", Model::CREW, 8, 2910, 643},
  {"tube_maxima per_slice 33^3", Model::CRCW_COMMON, 26, 82830, 13068},
  {"tube_maxima per_slice 33^3", Model::CREW, 14, 27786, 3366},
  {"tube_maxima sampled 33^3", Model::CRCW_COMMON, 10, 15809, 4224},
  {"tube_maxima sampled 33^3", Model::CREW, 6, 6274, 1088},
};
// clang-format on

struct Case {
  std::string name;
  std::function<void(Machine&)> run;
};

std::string shape(std::size_t m, std::size_t n) {
  return std::to_string(m) + "x" + std::to_string(n);
}

/// Every pinned case.  Operands are built once, from fixed seeds.
const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    std::vector<Case> out;
    for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{1, 1},
                              {3, 50}, {50, 3}, {17, 17}, {64, 200},
                              {200, 64}, {256, 256}}) {
      Rng rng(1000 + 7 * m + n);
      auto a = std::make_shared<DenseArray<std::int64_t>>(
          monge::random_monge(m, n, rng));
      auto inv = std::make_shared<DenseArray<std::int64_t>>(
          monge::random_inverse_monge(m, n, rng));
      const std::string s = " " + shape(m, n);
      out.push_back({"monge_row_minima" + s,
                     [a](Machine& mach) { monge_row_minima(mach, *a); }});
      out.push_back({"monge_row_maxima" + s,
                     [a](Machine& mach) { monge_row_maxima(mach, *a); }});
      out.push_back({"inverse_monge_row_minima" + s, [inv](Machine& mach) {
                       inverse_monge_row_minima(mach, *inv);
                     }});
      out.push_back({"inverse_monge_row_maxima" + s, [inv](Machine& mach) {
                       inverse_monge_row_maxima(mach, *inv);
                     }});
    }
    // Row-subset forms: every `stride`-th row, on a wide (Case 2) and a
    // tall (Case 1) subset.
    for (const auto& [m, n, stride] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{150, 90, 3},
          {300, 40, 2}}) {
      Rng rng(2000 + m + n);
      auto a = std::make_shared<DenseArray<std::int64_t>>(
          monge::random_monge(m, n, rng));
      auto inv = std::make_shared<DenseArray<std::int64_t>>(
          monge::random_inverse_monge(m, n, rng));
      auto rows = std::make_shared<std::vector<std::size_t>>();
      for (std::size_t r = 1; r < m; r += stride) rows->push_back(r);
      const std::string s =
          " " + shape(m, n) + "/" + std::to_string(stride);
      out.push_back({"monge_row_minima_rows" + s, [a, rows](Machine& mach) {
                       monge_row_minima_rows(mach, *a, *rows);
                     }});
      out.push_back({"monge_row_maxima_rows" + s, [a, rows](Machine& mach) {
                       monge_row_maxima_rows(mach, *a, *rows);
                     }});
      out.push_back({"inverse_monge_row_minima_rows" + s,
                     [inv, rows](Machine& mach) {
                       inverse_monge_row_minima_rows(mach, *inv, *rows);
                     }});
      out.push_back({"inverse_monge_row_maxima_rows" + s,
                     [inv, rows](Machine& mach) {
                       inverse_monge_row_maxima_rows(mach, *inv, *rows);
                     }});
    }
    for (const std::size_t n : {64, 257}) {
      Rng rng(3000 + n);
      auto inst = std::make_shared<monge::StaircaseInstance>(
          monge::random_staircase_monge(n, n, rng));
      for (const auto& [sched, tag] :
           {std::pair{StaircaseSchedule::MaxParallel, "max_parallel"},
            {StaircaseSchedule::WorkEfficient, "work_efficient"},
            {StaircaseSchedule::ColumnSplit, "column_split"}}) {
        out.push_back({"staircase_row_minima " + std::string(tag) + " " +
                           shape(n, n),
                       [inst, sched](Machine& mach) {
                         monge::StaircaseArray<DenseArray<std::int64_t>> s(
                             inst->base, inst->frontier);
                         staircase_row_minima(mach, s, sched);
                       }});
      }
    }
    for (const std::size_t n : {16, 33}) {
      Rng rng(4000 + n);
      auto comp = std::make_shared<monge::CompositeInstance>(
          monge::random_composite(n, n, n, rng));
      for (const auto& [strategy, tag] :
           {std::pair{TubeStrategy::PerSlice, "per_slice"},
            {TubeStrategy::SampledDoublyLog, "sampled"}}) {
        out.push_back({"tube_maxima " + std::string(tag) + " " +
                           std::to_string(n) + "^3",
                       [comp, strategy](Machine& mach) {
                         tube_maxima(mach, comp->d, comp->e, strategy);
                       }});
      }
    }
    return out;
  }();
  return all;
}

const Expected* find_expected(const std::string& name, Model model) {
  for (const Expected& e : kExpected) {
    if (name == e.name && model == e.model) return &e;
  }
  return nullptr;
}

const char* model_literal(Model model) {
  return model == Model::CREW ? "Model::CREW" : "Model::CRCW_COMMON";
}

/// Restores the global engine size on scope exit.
struct ThreadGuard {
  std::size_t saved = exec::num_threads();
  ~ThreadGuard() { exec::set_num_threads(saved); }
};

TEST(KernelCharges, MatchPinnedTable) {
  ThreadGuard guard;
  std::size_t checked = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exec::set_num_threads(threads);
    for (const Case& c : cases()) {
      for (const Model model : {Model::CRCW_COMMON, Model::CREW}) {
        Machine mach(model);
        c.run(mach);
        const pram::CostMeter& got = mach.meter();
        const Expected* want = find_expected(c.name, model);
        if (want == nullptr) {
          ADD_FAILURE() << "no pinned row; measured:\n  {\"" << c.name
                        << "\", " << model_literal(model) << ", "
                        << got.time << ", " << got.work << ", "
                        << got.peak_processors << "},";
          continue;
        }
        const std::string where = c.name + " on " + model_name(model) +
                                  " at " + std::to_string(threads) +
                                  " threads";
        EXPECT_EQ(got.time, want->time) << where;
        EXPECT_EQ(got.work, want->work) << where;
        EXPECT_EQ(got.peak_processors, want->peak) << where;
        ++checked;
      }
    }
  }
  // Every row is exercised at both thread counts: no stale rows.
  EXPECT_EQ(checked, 2 * std::size(kExpected));
}

/// Warm calls allocate the returned vector and nothing else.  On one lane
/// that is exact.  On the pool, every batch the engine submits allocates
/// its own control block and, now and then, a queue node; those belong to
/// the engine, so up to two per batch are allowed and none for the
/// kernel.  A per-frame or per-row std::vector would cost hundreds per
/// call.
TEST(KernelAllocations, WarmCallsAllocateOnlyTheirResult) {
  ThreadGuard guard;
  Rng rng(5150);
  const auto a = monge::random_monge(256, 256, rng);
  const auto inst = monge::random_staircase_monge(257, 257, rng);
  const monge::StaircaseArray<DenseArray<std::int64_t>> stair(inst.base,
                                                              inst.frontier);
  const auto comp = monge::random_composite(33, 33, 33, rng);
  const std::pair<const char*, std::function<void(Machine&)>> kernels[] = {
      {"monge_row_minima 256x256",
       [&](Machine& mach) { monge_row_minima(mach, a); }},
      {"staircase_row_minima max_parallel 257x257",
       [&](Machine& mach) {
         staircase_row_minima(mach, stair, StaircaseSchedule::MaxParallel);
       }},
      {"tube_maxima per_slice 33^3",
       [&](Machine& mach) {
         tube_maxima(mach, comp.d, comp.e, TubeStrategy::PerSlice);
       }},
      {"tube_maxima sampled 33^3",
       [&](Machine& mach) {
         tube_maxima(mach, comp.d, comp.e, TubeStrategy::SampledDoublyLog);
       }},
  };
  constexpr std::uint64_t kWarm = 3, kCalls = 10;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exec::set_num_threads(threads);
    for (const auto& [name, run] : kernels) {
      for (std::uint64_t i = 0; i < kWarm; ++i) {
        Machine mach(Model::CRCW_COMMON);
        run(mach);
      }
      const std::uint64_t batches0 = exec::pool().stats().batches;
      const std::uint64_t news0 = g_news.load();
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        Machine mach(Model::CRCW_COMMON);
        run(mach);
      }
      const std::uint64_t news = g_news.load() - news0;
      const std::uint64_t batches = exec::pool().stats().batches - batches0;
      EXPECT_LE(news, kCalls + 2 * batches)
          << name << " at " << threads << " threads: " << news
          << " allocations over " << kCalls << " warm calls that submitted "
          << batches << " pool batches";
      if (threads == 1) {
        EXPECT_EQ(batches, 0u) << name;
      }
    }
  }
}

}  // namespace
}  // namespace pmonge::par
