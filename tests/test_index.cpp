// Query-index suite (docs/indexing.md): the build-once submatrix
// min/max structures of src/index must be invisible in response bytes.
//
// Legs:
//   * library differential -- Index::submatrix_opt vs every
//     submatrix_direct variant (brute / sequential SMAWK / chunked
//     parallel) over seeded random monge / inverse-Monge / staircase
//     arrays, across thread counts;
//   * fork-rule bit-identity -- arrays whose predicted build work
//     straddles the exec fork rule's kappa build in place vs on the pool
//     and must answer identically;
//   * serve differential -- the same submatrix stream against a service
//     with the index built and one without, byte-compared;
//   * invalidation -- unregister drops the index; later submatrix
//     queries answer unknown_array, never a stale indexed result;
//   * node-corrupt chaos -- index.node_corrupt armed at a high rate:
//     checksums catch every flip, nodes rebuild from the source array,
//     and the bytes never move.  Seeded failures print a reproduction
//     command (bench/bench_util.hpp).
//
// Knobs:
//   PMONGE_THREADS     run ONLY this engine thread count
//   PMONGE_INDEX_SEED  run ONLY this workload seed
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
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
  // A dense m x m build predicts 2 * 7 * (rows + m) work per 64-row leaf.
  // At m = 119 its two leaves sum to 4998, at most kappa: the build stays
  // on the calling thread.  At m = 120 they sum to 5040 and the leaves go
  // to the pool.  Either way the answers match brute, and a 1-thread
  // build matches an 8-thread build field for field.
  static_assert(14 * (64 + 119) + 14 * (55 + 119) <= exec::kForkWork &&
                14 * (64 + 120) + 14 * (56 + 120) > exec::kForkWork);
  for (const std::size_t m : {119u, 120u}) {
    const auto entry = make_entry("monge", m, m, 99);
    exec::set_num_threads(8);
    Index par_idx(entry);
    const std::uint64_t b0 = exec::pool_stats().batches;
    par_idx.build();
    const std::uint64_t batches = exec::pool_stats().batches - b0;
    if (m == 119) {
      EXPECT_EQ(batches, 0u) << "a build below kappa reached the pool";
    } else {
      EXPECT_GE(batches, 1u) << "a build above kappa stayed in place";
    }
    exec::set_num_threads(1);
    Index ser_idx(entry);
    ser_idx.build();
    Rng rng(17);
    for (int q = 0; q < 100; ++q) {
      const Region g = random_region(rng, m, m);
      const bool maxima = q % 2 == 0;
      const RegionOpt a = par_idx.submatrix_opt(maxima, g.r0, g.r1, g.c0, g.c1);
      const RegionOpt b = ser_idx.submatrix_opt(maxima, g.r0, g.r1, g.c0, g.c1);
      const RegionOpt w = index::submatrix_direct(
          *entry, maxima, plan::Algo::Brute, g.r0, g.r1, g.c0, g.c1);
      ASSERT_TRUE(same(a, b)) << "m=" << m << " threads changed index bytes: "
                              << region_str(a) << " vs " << region_str(b);
      ASSERT_TRUE(same(a, w)) << "m=" << m << " index " << region_str(a)
                              << " vs brute " << region_str(w);
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
  svc.request("{\"op\":\"index_build\",\"array\":" + std::to_string(a) + "}");
  const Json after = Json::parse(svc.request(ex));
  const Json* plan_after = after.find("result")->find("plan");
  EXPECT_TRUE(plan_after->find("use_index")->as_bool());
  // The inner outcome bytes are route-independent.
  EXPECT_EQ(before.find("result")->find("outcome")->dump(),
            after.find("result")->find("outcome")->dump());
}

}  // namespace
}  // namespace pmonge
