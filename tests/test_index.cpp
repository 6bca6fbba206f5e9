// Query-index suite (docs/indexing.md): the build-once submatrix
// min/max structures of src/index must be invisible in response bytes.
//
// Legs:
//   * library differential -- Index::submatrix_opt vs every
//     submatrix_direct variant (brute / sequential SMAWK / chunked
//     parallel) over seeded random monge / inverse-Monge / staircase
//     arrays, across thread counts;
//   * leaf-edge pieces -- every piece shape (leaf prefixes and suffixes,
//     in-leaf regions, single rows and columns, cut and whole column
//     blocks) against brute force on random and tie-heavy monge /
//     inverse-Monge arrays at leaf sizes 64 and 2;
//   * fork-rule bit-identity -- arrays whose predicted build work
//     straddles the exec fork rule's kappa build in place vs on the pool
//     and must answer identically;
//   * serve differential -- the same submatrix stream against a service
//     with the index built and one without, byte-compared;
//   * invalidation -- unregister drops the index; later submatrix
//     queries answer unknown_array, never a stale indexed result;
//   * node-corrupt chaos -- index.node_corrupt armed at a high rate:
//     checksums catch every flip, nodes and leaf piece payloads rebuild
//     from the source array, and the bytes never move.  Seeded failures print a reproduction
//     command (bench/bench_util.hpp).
//
// Knobs:
//   PMONGE_THREADS     run ONLY this engine thread count
//   PMONGE_INDEX_SEED  run ONLY this workload seed
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "index/index.hpp"
#include "monge/generators.hpp"
#include "par/monge_rowminima.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace pmonge {
namespace {

using index::Index;
using index::RegionOpt;
using serve::ArrayEntry;
using serve::Json;
using serve::Service;
using serve::ServiceOptions;

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = exec::num_threads();
    fault::disarm();
  }
  void TearDown() override {
    fault::disarm();
    exec::set_num_threads(saved_threads_);
  }

 private:
  std::size_t saved_threads_ = 1;
};

std::vector<std::size_t> thread_counts() {
  if (const auto only = support::env_uint("PMONGE_THREADS")) {
    return {static_cast<std::size_t>(*only < 1 ? 1 : *only)};
  }
  return {1, 4, 8};
}

std::vector<std::uint64_t> workload_seeds() {
  if (const auto only = support::env_uint("PMONGE_INDEX_SEED")) {
    return {*only};
  }
  return {1, 2, 3};
}

std::string index_repro(std::uint64_t seed, std::size_t threads) {
  return bench::repro_line("PMONGE_INDEX_SEED=" + std::to_string(seed) +
                               " PMONGE_THREADS=" + std::to_string(threads),
                           "index");
}

std::shared_ptr<const ArrayEntry> make_entry(const char* kind, std::size_t m,
                                             std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  ArrayEntry e;
  if (std::string(kind) == "monge") {
    e.kind = ArrayEntry::Kind::Monge;
    e.data = monge::random_monge(m, n, rng);
  } else if (std::string(kind) == "inverse_monge") {
    e.kind = ArrayEntry::Kind::InverseMonge;
    e.data = monge::random_inverse_monge(m, n, rng);
  } else {
    e.kind = ArrayEntry::Kind::Staircase;
    auto inst = monge::random_staircase_monge(m, n, rng);
    e.data = std::move(inst.base);
    e.frontier = std::move(inst.frontier);
  }
  return std::make_shared<const ArrayEntry>(std::move(e));
}

struct Region {
  std::size_t r0, r1, c0, c1;
};

Region random_region(Rng& rng, std::size_t m, std::size_t n) {
  const auto a = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
  const auto b = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
  const auto c = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  const auto d = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  return {std::min(a, b), std::max(a, b), std::min(c, d), std::max(c, d)};
}

std::string region_str(const RegionOpt& r) {
  if (!r.has) return "(empty)";
  return "(v=" + std::to_string(r.value) + ", r=" + std::to_string(r.row) +
         ", c=" + std::to_string(r.col) + ")";
}

bool same(const RegionOpt& a, const RegionOpt& b) {
  if (a.has != b.has) return false;
  if (!a.has) return true;
  return a.value == b.value && a.row == b.row && a.col == b.col;
}

// ---------------------------------------------------------------------------
// Library differential: index vs every direct variant
// ---------------------------------------------------------------------------

TEST_F(IndexTest, DifferentialIndexVsDirectAllKinds) {
  for (const std::size_t threads : thread_counts()) {
    exec::set_num_threads(threads);
    for (const std::uint64_t seed : workload_seeds()) {
      const std::string repro = index_repro(seed, threads);
      for (const char* kind : {"monge", "inverse_monge", "staircase"}) {
        // 150 rows: partial leaf pieces on both edges plus canonical
        // nodes at every tree depth.
        const auto entry = make_entry(kind, 150, 90, seed * 101 + 7);
        Index idx(entry);
        idx.build();
        Rng rng(seed ^ 0xabcdef12345ULL);
        for (int q = 0; q < 200; ++q) {
          const Region g = random_region(rng, 150, 90);
          const bool maxima = q % 2 == 1;
          const RegionOpt want = index::submatrix_direct(
              *entry, maxima, plan::Algo::Brute, g.r0, g.r1, g.c0, g.c1);
          const RegionOpt got =
              idx.submatrix_opt(maxima, g.r0, g.r1, g.c0, g.c1);
          ASSERT_TRUE(same(want, got))
              << repro << "\n  kind " << kind << (maxima ? " max " : " min ")
              << "[" << g.r0 << "," << g.r1 << "]x[" << g.c0 << "," << g.c1
              << "]: brute " << region_str(want) << " vs index "
              << region_str(got);
          for (const plan::Algo algo :
               {plan::Algo::Sequential, plan::Algo::Parallel}) {
            const RegionOpt direct = index::submatrix_direct(
                *entry, maxima, algo, g.r0, g.r1, g.c0, g.c1);
            ASSERT_TRUE(same(want, direct))
                << repro << "\n  kind " << kind << " algo "
                << plan::algo_name(algo) << ": brute " << region_str(want)
                << " vs direct " << region_str(direct);
          }
        }
      }
    }
  }
}

// Operands where ties decide every answer: a[i][j] = f(j) + g(i) with
// values drawn from a handful, so rows and columns repeat.  A sum of a
// row term and a column term is both Monge and inverse-Monge (equality).
std::shared_ptr<const ArrayEntry> tie_entry(const char* shape, bool inverse,
                                            std::size_t m, std::size_t n,
                                            std::uint64_t seed) {
  Rng rng(seed);
  ArrayEntry e;
  e.kind = inverse ? ArrayEntry::Kind::InverseMonge : ArrayEntry::Kind::Monge;
  e.data = monge::DenseArray<std::int64_t>(m, n);
  const std::string s(shape);
  std::vector<std::int64_t> f(n), g(m);
  for (auto& x : f) x = s == "constant" ? 5 : rng.uniform_int(0, 3);
  for (auto& x : g) x = s == "sum" ? rng.uniform_int(0, 2) : 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) e.data.at(i, j) = f[j] + g[i];
  }
  return std::make_shared<const ArrayEntry>(std::move(e));
}

/// Regions that exercise every piece shape: all pairs of each leaf's
/// first, second, middle and last rows (leaf prefixes and suffixes,
/// regions inside one leaf, single rows, pieces on both edges) crossed
/// with column ranges that are full width, one column, aligned and cut
/// kBlockCols blocks, and random.
std::vector<Region> piece_regions(std::size_t m, std::size_t n,
                                  std::size_t leaf, std::size_t max_pairs,
                                  Rng& rng) {
  std::vector<std::size_t> rows;
  for (std::size_t lo = 0; lo < m; lo += leaf) {
    const std::size_t hi = std::min(m, lo + leaf) - 1;
    for (const std::size_t r : {lo, lo + 1, lo + (hi - lo) / 2, hi}) {
      if (r <= hi && (rows.empty() || rows.back() < r)) rows.push_back(r);
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t x = 0; x < rows.size(); ++x) {
    for (std::size_t y = x; y < rows.size(); ++y) {
      pairs.emplace_back(rows[x], rows[y]);
    }
  }
  while (pairs.size() > max_pairs) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1));
    pairs[k] = pairs.back();
    pairs.pop_back();
  }
  const std::size_t k = index::kBlockCols;
  const auto col = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<Region> out;
  for (const auto& [r0, r1] : pairs) {
    const std::size_t c = col();
    const std::size_t d = col();
    std::vector<std::pair<std::size_t, std::size_t>> cols = {
        {0, n - 1}, {c, c}, {std::min(c, d), std::max(c, d)},
        {0, c},     {c, n - 1}};
    if (n > 2 * k) {
      cols.emplace_back(k, 2 * k - 1);      // one whole block
      cols.emplace_back(k - 1, 2 * k);      // cut blocks on both sides
      cols.emplace_back(k + 1, n - 2);      // whole blocks between cuts
    }
    for (const auto& [c0, c1] : cols) out.push_back({r0, r1, c0, c1});
  }
  return out;
}

TEST_F(IndexTest, EdgePiecesMatchBruteOnEveryShape) {
  // Monge and inverse-Monge, min and max; heights that are and are not a
  // multiple of the leaf, widths that are not a multiple of the block;
  // leaves of 64 rows and of 2; random and tie-heavy operands.
  struct Shape {
    std::size_t m, n;
  };
  exec::set_num_threads(1);
  for (const std::uint64_t seed : workload_seeds()) {
    for (const Shape sh : {Shape{150, 90}, Shape{200, 33}, Shape{64, 1},
                           Shape{128, 200}, Shape{70, 64}}) {
      std::vector<std::pair<std::string, std::shared_ptr<const ArrayEntry>>>
          entries;
      for (const bool inverse : {false, true}) {
        const std::string k = inverse ? "inverse_monge" : "monge";
        entries.emplace_back(
            k, make_entry(k.c_str(), sh.m, sh.n, seed * 31 + sh.m + sh.n));
        for (const char* t : {"constant", "equal_rows", "sum"}) {
          entries.emplace_back(k + "/" + t,
                               tie_entry(t, inverse, sh.m, sh.n, seed + sh.n));
        }
      }
      for (const std::size_t leaf : {index::kDefaultLeafRows, std::size_t{2}}) {
        for (const auto& [name, entry] : entries) {
          Index idx(entry, leaf);
          idx.build();
          Rng rng(seed * 977 + leaf);
          for (const Region& g : piece_regions(sh.m, sh.n, leaf, 120, rng)) {
            for (const bool maxima : {false, true}) {
              const RegionOpt want = index::submatrix_direct(
                  *entry, maxima, plan::Algo::Brute, g.r0, g.r1, g.c0, g.c1);
              const RegionOpt got =
                  idx.submatrix_opt(maxima, g.r0, g.r1, g.c0, g.c1);
              ASSERT_TRUE(same(want, got))
                  << index_repro(seed, 1) << "\n  " << name << " " << sh.m
                  << "x" << sh.n << " leaf " << leaf
                  << (maxima ? " max " : " min ") << "[" << g.r0 << ","
                  << g.r1 << "]x[" << g.c0 << "," << g.c1 << "]: brute "
                  << region_str(want) << " vs index " << region_str(got);
            }
          }
        }
      }
    }
  }
}

TEST_F(IndexTest, EmptyStaircaseRegionHasNoValue) {
  // A handcrafted frontier with fully-infinite bottom rows: regions
  // entirely past the frontier must answer has == false everywhere.
  ArrayEntry e;
  e.kind = ArrayEntry::Kind::Staircase;
  Rng rng(5);
  e.data = monge::random_monge(8, 8, rng);
  e.frontier = {8, 6, 4, 3, 2, 0, 0, 0};
  const auto entry = std::make_shared<const ArrayEntry>(std::move(e));
  Index idx(entry, 2);  // several tree levels even at 8 rows
  idx.build();
  for (const bool maxima : {false, true}) {
    EXPECT_FALSE(idx.submatrix_opt(maxima, 5, 7, 0, 7).has);
    EXPECT_FALSE(idx.submatrix_opt(maxima, 2, 4, 6, 7).has);
    const RegionOpt direct = index::submatrix_direct(
        *entry, maxima, plan::Algo::Brute, 5, 7, 0, 7);
    EXPECT_FALSE(direct.has);
    // Mixed region: finite prefix decides the answer.
    const RegionOpt got = idx.submatrix_opt(maxima, 3, 7, 0, 7);
    const RegionOpt want = index::submatrix_direct(
        *entry, maxima, plan::Algo::Brute, 3, 7, 0, 7);
    EXPECT_TRUE(same(want, got))
        << region_str(want) << " vs " << region_str(got);
  }
}

// ---------------------------------------------------------------------------
// Fork rule: builds either side of kappa answer identically
// ---------------------------------------------------------------------------

TEST_F(IndexTest, ForkRuleStraddleBitIdentity) {
  // A build predicts 2 * rows * w work per leaf (every cell read once per
  // direction).  A 100-row operand has two leaves (64 + 36 rows): at
  // w = 25 they sum to 5000, at most kappa, and the build stays on the
  // calling thread; at w = 26 they sum to 5200 and the leaves go to the
  // pool.  Either way the answers match brute, and a
  // 1-thread build matches an 8-thread build field for field.
  constexpr std::size_t m = 100;
  static_assert(2 * m * 25 <= exec::kForkWork &&
                2 * m * 26 > exec::kForkWork);
  for (const std::size_t w : {25u, 26u}) {
    const auto entry = make_entry("monge", m, w, 99);
    exec::set_num_threads(8);
    Index par_idx(entry);
    const std::uint64_t b0 = exec::pool_stats().batches;
    par_idx.build();
    const std::uint64_t batches = exec::pool_stats().batches - b0;
    if (w == 25) {
      EXPECT_EQ(batches, 0u) << "a build below kappa reached the pool";
    } else {
      EXPECT_GE(batches, 1u) << "a build above kappa stayed in place";
    }
    exec::set_num_threads(1);
    Index ser_idx(entry);
    ser_idx.build();
    EXPECT_EQ(par_idx.memory_bytes(), ser_idx.memory_bytes()) << "w=" << w;
    Rng rng(17);
    for (int q = 0; q < 100; ++q) {
      const Region g = random_region(rng, m, w);
      const bool maxima = q % 2 == 0;
      const RegionOpt a = par_idx.submatrix_opt(maxima, g.r0, g.r1, g.c0, g.c1);
      const RegionOpt b = ser_idx.submatrix_opt(maxima, g.r0, g.r1, g.c0, g.c1);
      const RegionOpt want = index::submatrix_direct(
          *entry, maxima, plan::Algo::Brute, g.r0, g.r1, g.c0, g.c1);
      ASSERT_TRUE(same(a, b)) << "w=" << w << " threads changed index bytes: "
                              << region_str(a) << " vs " << region_str(b);
      ASSERT_TRUE(same(a, want)) << "w=" << w << " index " << region_str(a)
                                 << " vs brute " << region_str(want);
    }
  }
}

// ---------------------------------------------------------------------------
// Serve layer: routing is invisible, invalidation is immediate
// ---------------------------------------------------------------------------

std::int64_t result_int(const std::string& resp, const char* key) {
  const Json r = Json::parse(resp);
  const Json* ok = r.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    ADD_FAILURE() << "expected ok response, got: " << resp;
    return -1;
  }
  return r.find("result")->find(key)->as_int();
}

std::vector<std::string> submatrix_stream(std::uint64_t seed,
                                          std::int64_t array, std::size_t m,
                                          std::size_t n, std::size_t count) {
  Rng rng(seed * 7919 + 13);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    const Region g = random_region(rng, m, n);
    lines.push_back(
        std::string("{\"op\":\"submatrix_") + (q % 2 ? "max" : "min") +
        "\",\"array\":" + std::to_string(array) +
        ",\"r0\":" + std::to_string(g.r0) + ",\"r1\":" + std::to_string(g.r1) +
        ",\"c0\":" + std::to_string(g.c0) + ",\"c1\":" + std::to_string(g.c1) +
        "}");
  }
  return lines;
}

TEST_F(IndexTest, ServeIndexOnOffBytesIdentical) {
  exec::set_num_threads(4);
  for (const std::uint64_t seed : workload_seeds()) {
    const std::string repro = index_repro(seed, 4);
    ServiceOptions opts;
    opts.cache_capacity = 0;  // compare computations, not memoized bytes
    // Planner off: prefer_index degenerates to "use it when built", so
    // the indexed service deterministically routes through the index at
    // these sizes regardless of the profile's constants.
    opts.planner = false;
    Service indexed(opts);
    Service plain(opts);
    for (const char* kind : {"monge", "staircase"}) {
      const std::string reg =
          std::string("{\"op\":\"register_random\",\"kind\":\"") + kind +
          "\",\"rows\":100,\"cols\":80,\"seed\":" + std::to_string(seed) + "}";
      const std::int64_t ia = result_int(indexed.request(reg), "array");
      const std::int64_t pa = result_int(plain.request(reg), "array");
      ASSERT_EQ(ia, pa) << repro;
      ASSERT_GE(result_int(indexed.request(
                    "{\"op\":\"index_build\",\"array\":" + std::to_string(ia) +
                    "}"),
                "nodes"),
                1)
          << repro;
      for (const std::string& line : submatrix_stream(seed, ia, 100, 80, 60)) {
        EXPECT_EQ(indexed.request(line), plain.request(line))
            << repro << "\n  query: " << line;
      }
    }
    // The indexed service really served lookups through its indexes.
    const Json stats = Json::parse(indexed.request("{\"op\":\"index_stats\"}"));
    EXPECT_GT(stats.find("result")->find("lookups")->as_int(), 0) << repro;
  }
}

TEST_F(IndexTest, UnregisterInvalidatesIndex) {
  Service svc;
  const std::int64_t a = result_int(
      svc.request("{\"op\":\"register_random\",\"rows\":48,\"cols\":48,"
                  "\"seed\":3}"),
      "array");
  svc.request("{\"op\":\"index_build\",\"array\":" + std::to_string(a) + "}");
  const std::string probe = "{\"op\":\"submatrix_min\",\"array\":" +
                            std::to_string(a) +
                            ",\"c0\":0,\"c1\":47,\"r0\":0,\"r1\":47}";
  EXPECT_NE(svc.request(probe).find("\"ok\":true"), std::string::npos);
  svc.request("{\"op\":\"unregister\",\"array\":" + std::to_string(a) + "}");
  const Json after = Json::parse(svc.request(probe));
  EXPECT_FALSE(after.find("ok")->as_bool());
  EXPECT_EQ(after.find("error")->as_string(),
            "unknown_array: " + std::to_string(a));
  const Json stats = Json::parse(svc.request("{\"op\":\"index_stats\"}"));
  EXPECT_EQ(stats.find("result")->find("arrays")->as_int(), 0);
  EXPECT_EQ(stats.find("result")->find("drops")->as_int(), 1);
}

// ---------------------------------------------------------------------------
// The node-corrupt chaos leg
// ---------------------------------------------------------------------------

TEST_F(IndexTest, CorruptNodesDetectedRebuiltAndInvisible) {
  exec::set_num_threads(4);
  const std::uint64_t seed = workload_seeds().front();
  const std::string repro = index_repro(seed, 4);
  const std::uint32_t mask =
      1u << static_cast<std::uint32_t>(fault::Site::IndexNodeCorrupt);

  ServiceOptions opts;
  opts.cache_capacity = 0;
  opts.planner = false;  // deterministic index routing (see above)
  Service faulted(opts);
  Service plain(opts);
  const std::string reg =
      "{\"op\":\"register_random\",\"rows\":128,\"cols\":96,\"seed\":" +
      std::to_string(seed) + "}";
  const std::int64_t fa = result_int(faulted.request(reg), "array");
  const std::int64_t pa = result_int(plain.request(reg), "array");
  ASSERT_EQ(fa, pa) << repro;
  const std::string build =
      "{\"op\":\"index_build\",\"array\":" + std::to_string(fa) + "}";
  // Both sides answer through an index: only the corruption differs.
  EXPECT_EQ(faulted.request(build), plain.request(build)) << repro;

  fault::arm(seed, 10000, mask);  // every visited node gets a flipped byte
  std::vector<std::string> got;
  const auto stream = submatrix_stream(seed, fa, 128, 96, 80);
  for (const std::string& line : stream) got.push_back(faulted.request(line));
  fault::disarm();
  const std::uint64_t injected = fault::injected(fault::Site::IndexNodeCorrupt);
  EXPECT_GT(injected, 0u) << repro;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(got[i], plain.request(stream[i]))
        << repro << "\n  corrupted-index bytes differ\n  query: "
        << stream[i];
  }

  // Audit: every injected flip was detected and repaired, and repairs
  // actually happened.
  const Json stats = Json::parse(faulted.request(
      "{\"op\":\"index_stats\",\"array\":" + std::to_string(fa) + "}"));
  const Json* r = stats.find("result");
  ASSERT_NE(r, nullptr) << repro;
  const std::int64_t detected = r->find("corrupt_detected")->as_int();
  const std::int64_t rebuilds = r->find("node_rebuilds")->as_int();
  EXPECT_GT(detected, 0) << repro;
  EXPECT_EQ(detected, rebuilds) << repro;
  EXPECT_EQ(static_cast<std::uint64_t>(detected), injected) << repro;

  // Leaf piece payloads: a region whose rows cut two adjacent leaves
  // visits no tree node, so every flip lands in a leaf's envelopes.  Each
  // is detected, rebuilt from the source array, and invisible.
  for (const char* kind : {"monge", "inverse_monge"}) {
    const auto entry = make_entry(kind, 200, 70, seed + 3);
    Index idx(entry);
    idx.build();
    std::vector<Region> regions;
    Rng rng(seed * 13 + 1);
    for (int q = 0; q < 60; ++q) {
      const auto b = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const std::size_t lo = b * 64;
      const std::size_t next_hi = std::min<std::size_t>(200, lo + 128) - 1;
      const auto r0 = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo) + 1, static_cast<std::int64_t>(lo) + 63));
      const auto r1 = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo) + 64,
          static_cast<std::int64_t>(next_hi) - 1));
      const Region c = random_region(rng, 200, 70);
      regions.push_back({r0, r1, c.c0, c.c1});
    }
    fault::arm(seed, 10000, mask);
    std::vector<RegionOpt> answers;
    for (std::size_t q = 0; q < regions.size(); ++q) {
      const Region& g = regions[q];
      answers.push_back(idx.submatrix_opt(q % 2 == 1, g.r0, g.r1, g.c0, g.c1));
    }
    fault::disarm();
    const std::uint64_t flips = fault::injected(fault::Site::IndexNodeCorrupt);
    EXPECT_GT(flips, 0u) << repro << " " << kind;
    EXPECT_EQ(idx.corrupt_detected(), flips) << repro << " " << kind;
    EXPECT_EQ(idx.node_rebuilds(), flips) << repro << " " << kind;
    for (std::size_t q = 0; q < regions.size(); ++q) {
      const Region& g = regions[q];
      const RegionOpt want = index::submatrix_direct(
          *entry, q % 2 == 1, plan::Algo::Brute, g.r0, g.r1, g.c0, g.c1);
      EXPECT_TRUE(same(want, answers[q]))
          << repro << " " << kind << " corrupted-piece answer ["
          << g.r0 << "," << g.r1 << "]x[" << g.c0 << "," << g.c1
          << "]: brute " << region_str(want) << " vs index "
          << region_str(answers[q]);
    }
  }
}

TEST_F(IndexTest, ExplainReportsIndexRoute) {
  Service svc;
  // 256x256: any direct variant costs orders of magnitude more than
  // ~2 lg m + 2 lg n node probes, so prefer_index holds for every sane
  // calibrated profile.
  const std::int64_t a = result_int(
      svc.request("{\"op\":\"register_random\",\"rows\":256,\"cols\":256,"
                  "\"seed\":11}"),
      "array");
  const std::string inner = "{\"op\":\"submatrix_min\",\"array\":" +
                            std::to_string(a) +
                            ",\"c0\":0,\"c1\":255,\"r0\":0,\"r1\":255}";
  const std::string ex = "{\"op\":\"explain\",\"query\":" + inner + "}";
  const Json before = Json::parse(svc.request(ex));
  const Json* plan_before = before.find("result")->find("plan");
  ASSERT_NE(plan_before->find("use_index"), nullptr);
  EXPECT_FALSE(plan_before->find("use_index")->as_bool());
  EXPECT_EQ(plan_before->find("index_predicted_us"), nullptr);
  svc.request("{\"op\":\"index_build\",\"array\":" + std::to_string(a) + "}");
  const Json after = Json::parse(svc.request(ex));
  const Json* plan_after = after.find("result")->find("plan");
  EXPECT_TRUE(plan_after->find("use_index")->as_bool());
  // The index route reports the price prefer_index compared -- the one
  // its actual_us should be read against -- beside the direct plan's.
  const Json* index_price = plan_after->find("index_predicted_us");
  ASSERT_NE(index_price, nullptr);
  const double want_us =
      plan::index_lookup_ns(plan::builtin_profile(),
                            {plan::OpClass::SubmatrixSearch, 256, 256, 1}) /
      1000.0;
  EXPECT_DOUBLE_EQ(index_price->as_double(), want_us);
  EXPECT_LT(index_price->as_double(),
            plan_after->find("predicted_us")->as_double());
  // The inner outcome bytes are route-independent.
  EXPECT_EQ(before.find("result")->find("outcome")->dump(),
            after.find("result")->find("outcome")->dump());
}

}  // namespace
}  // namespace pmonge
