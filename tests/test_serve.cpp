// Serve-layer tests: canonical JSON, the sharded LRU result cache, the
// bounded admission queue, and the Service end to end -- correctness
// against sequential oracles, the bit-identical determinism guarantee
// (thread count x coalescing x cache state), backpressure and deadlines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "apps/string_edit.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "monge/brute.hpp"
#include "monge/generators.hpp"
#include "obs/trace.hpp"
#include "plan/cost_model.hpp"
#include "plan/planner.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace pmonge::serve {
namespace {

struct ThreadGuard {
  std::size_t saved = exec::num_threads();
  ~ThreadGuard() { exec::set_num_threads(saved); }
};

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"b":[1,2.5,"x",null,true],"a":{"nested":-7},"s":"é\n\"q\""})";
  const Json j = Json::parse(text);
  // Canonical: keys sorted, no whitespace, stable under re-parse.
  const std::string d1 = j.dump();
  const std::string d2 = Json::parse(d1).dump();
  EXPECT_EQ(d1, d2);
  EXPECT_LT(d1.find("\"a\""), d1.find("\"b\""));
  EXPECT_EQ(j.at("a").at("nested").as_int(), -7);
  EXPECT_EQ(j.at("b").arr().size(), 5u);
  EXPECT_DOUBLE_EQ(j.at("b").arr()[1].as_double(), 2.5);
}

TEST(Json, RejectsGarbage) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
}

TEST(Json, IntegerPrecisionPreserved) {
  const std::int64_t big = 9007199254740993LL;  // not double-representable
  Json::Obj o;
  o["v"] = big;
  const Json j = Json::parse(Json(std::move(o)).dump());
  EXPECT_EQ(j.at("v").as_int(), big);
}

// ---------------------------------------------------------------------------
// ShardedLruCache
// ---------------------------------------------------------------------------

TEST(Cache, HitMissCountersAndEviction) {
  ShardedLruCache cache(4, 1);  // single shard: exact LRU semantics
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", "1");
  cache.put("b", "2");
  cache.put("c", "3");
  cache.put("d", "4");
  EXPECT_EQ(cache.get("a"), "1");  // refreshes a's recency
  cache.put("e", "5");             // evicts b, the least recent
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.get("a"), "1");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 5u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 4u);
}

TEST(Cache, PutRefreshesExistingKey) {
  ShardedLruCache cache(2, 1);
  cache.put("a", "1");
  cache.put("b", "2");
  cache.put("a", "1'");  // refresh, not a new entry
  cache.put("c", "3");   // evicts b
  EXPECT_EQ(cache.get("a"), "1'");
  EXPECT_FALSE(cache.get("b").has_value());
}

TEST(Cache, TagInvalidationDropsExactlyTaggedEntries) {
  ShardedLruCache cache(16, 2);
  cache.put_tagged("q0", "r0", {7});
  cache.put_tagged("q1", "r1", {7, 9});
  cache.put_tagged("q2", "r2", {9});
  cache.put("q3", "r3");  // untagged: immune to invalidation
  EXPECT_EQ(cache.invalidate_tag(7), 2u);  // q0 and q1
  EXPECT_FALSE(cache.get("q0").has_value());
  EXPECT_FALSE(cache.get("q1").has_value());
  EXPECT_EQ(cache.get("q2"), "r2");
  EXPECT_EQ(cache.get("q3"), "r3");
  EXPECT_EQ(cache.invalidate_tag(7), 0u);  // idempotent
  EXPECT_EQ(cache.invalidate_tag(9), 1u);  // q2 only
  EXPECT_EQ(cache.stats().invalidations, 3u);
}

TEST(Cache, ZeroCapacityDisables) {
  ShardedLruCache cache(0, 8);
  EXPECT_FALSE(cache.enabled());
  cache.put("a", "1");
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Cache, KeysSharingAHashStayDistinct) {
  // The index compares (stored hash, key bytes): two keys forced under
  // one hash must each keep their own value through get, put, refresh,
  // eviction and invalidate_tag.
  ShardedLruCache cache(3, 1);
  constexpr std::uint64_t kHash = 42;
  std::string out;
  cache.put_tagged("alpha", kHash, "A", {1});
  cache.put_tagged("beta", kHash, "B", {2});
  EXPECT_TRUE(cache.get("alpha", kHash, out));
  EXPECT_EQ(out, "A");
  out.clear();
  EXPECT_TRUE(cache.get("beta", kHash, out));
  EXPECT_EQ(out, "B");
  out.clear();
  EXPECT_FALSE(cache.get("gamma", kHash, out));
  cache.put_tagged("beta", kHash, "B2", {2});  // refresh, not a new entry
  cache.put_tagged("gamma", kHash, "C", {3});
  EXPECT_EQ(cache.stats().entries, 3u);
  cache.put_tagged("delta", kHash, "D", {4});  // evicts alpha, the LRU
  EXPECT_FALSE(cache.get("alpha", kHash, out));
  EXPECT_TRUE(cache.get("beta", kHash, out));
  EXPECT_EQ(out, "B2");
  EXPECT_EQ(cache.invalidate_tag(3), 1u);  // gamma only
  out.clear();
  EXPECT_FALSE(cache.get("gamma", kHash, out));
  EXPECT_TRUE(cache.get("delta", kHash, out));
  EXPECT_EQ(out, "D");
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(Cache, ChecksumSeesEveryOneByteFlip) {
  // The poisoning detector folds 8-byte words then the tail bytes; every
  // step is a bijection of its state, so any one flipped byte of a value
  // changes the checksum -- across word boundaries and in the tail.
  for (std::size_t len = 1; len <= 40; ++len) {
    std::string v(len, '\0');
    for (std::size_t i = 0; i < len; ++i) v[i] = static_cast<char>('a' + i);
    const std::uint64_t sum = cache_checksum(v);
    for (std::size_t i = 0; i < len; ++i) {
      for (const unsigned char flip : {0x01, 0x40, 0x80, 0xff}) {
        std::string w = v;
        w[i] = static_cast<char>(w[i] ^ flip);
        EXPECT_NE(cache_checksum(w), sum) << "len " << len << " byte " << i;
      }
    }
  }
}

TEST(Cache, ConcurrentHammerIsConsistent) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  ShardedLruCache cache(64, 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> ts;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&cache, &bad, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 96);
        const std::string val = "v" + std::to_string((t * 7 + i) % 96);
        if (auto got = cache.get(key)) {
          if (*got != val) bad.fetch_add(1);  // value must match its key
        } else {
          cache.put(key, val);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0);
  const CacheStats s = cache.stats();
  EXPECT_LE(s.entries, 64u + 8u);  // per-shard rounding slack
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads * kOps));
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(Admission, OverflowRejectsExplicitly) {
  AdmissionQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), AdmitResult::Admitted);
  EXPECT_EQ(q.try_push(2), AdmitResult::Admitted);
  EXPECT_EQ(q.try_push(3), AdmitResult::Overloaded);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.overloaded(), 1u);
  auto batch = q.try_pop_batch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].item, 1);  // FIFO
  EXPECT_EQ(batch[1].item, 2);
  EXPECT_EQ(q.try_push(4), AdmitResult::Admitted);  // space freed
}

TEST(Admission, ExpiredItemsPopFlaggedNotDropped) {
  AdmissionQueue<int> q(4);
  q.try_push(1, ServeClock::now() - std::chrono::milliseconds(1));
  q.try_push(2);  // no deadline
  auto batch = q.try_pop_batch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].expired);
  EXPECT_FALSE(batch[1].expired);
}

TEST(Admission, StopDrainsThenReturnsEmpty) {
  AdmissionQueue<int> q(4);
  q.try_push(1);
  q.try_push(2);
  q.stop();
  EXPECT_EQ(q.pop_batch(1).size(), 1u);
  EXPECT_EQ(q.pop_batch(10).size(), 1u);
  EXPECT_TRUE(q.pop_batch(10).empty());  // drained; no block
}

TEST(Admission, PauseHoldsPoppersNotProducers) {
  AdmissionQueue<int> q(8);
  q.pause(true);
  q.try_push(1);
  q.try_push(2);
  EXPECT_TRUE(q.try_pop_batch(10).empty());  // held
  std::thread popper([&q] {
    auto batch = q.pop_batch(10);  // blocks until resume
    EXPECT_EQ(batch.size(), 2u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.pause(false);
  popper.join();
  q.stop();
}

TEST(Admission, ConcurrentProducersNeverLoseItems) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  AdmissionQueue<int> q(1u << 16);
  constexpr int kThreads = 8;
  constexpr int kItems = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&q] {
      for (int i = 0; i < kItems; ++i) ASSERT_EQ(q.try_push(i),
                                                 AdmitResult::Admitted);
    });
  }
  std::atomic<int> popped{0};
  std::thread consumer([&q, &popped] {
    while (true) {
      auto batch = q.pop_batch(64);
      if (batch.empty()) return;
      popped.fetch_add(static_cast<int>(batch.size()));
    }
  });
  for (auto& th : ts) th.join();
  q.stop();
  consumer.join();
  EXPECT_EQ(popped.load(), kThreads * kItems);
}

// ---------------------------------------------------------------------------
// Service end to end
// ---------------------------------------------------------------------------

std::string reg_random(Service& svc, std::size_t rows, std::size_t cols,
                       std::uint64_t seed, const char* kind = "monge") {
  Json::Obj o;
  o["op"] = "register_random";
  o["rows"] = rows;
  o["cols"] = cols;
  o["seed"] = seed;
  o["kind"] = kind;
  return svc.request(Json(std::move(o)).dump());
}

std::int64_t result_int(const std::string& resp, const char* key) {
  const Json j = Json::parse(resp);
  EXPECT_TRUE(j.at("ok").as_bool()) << resp;
  return j.at("result").at(key).as_int();
}

TEST(Service, RowMinimaMatchBruteForce) {
  Service svc;
  ASSERT_EQ(result_int(reg_random(svc, 24, 31, 5), "array"), 0);
  Rng rng(5);
  const auto a = monge::random_monge(24, 31, rng);  // same seed => same array
  const auto brute = monge::row_minima_brute(a);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    Json::Obj o;
    o["op"] = "rowmin";
    o["array"] = 0;
    o["row"] = i;
    const std::string resp = svc.request(Json(std::move(o)).dump());
    const auto expect = brute[i];
    EXPECT_EQ(result_int(resp, "value"), expect.value) << "row " << i;
    EXPECT_EQ(result_int(resp, "col"),
              static_cast<std::int64_t>(expect.col))
        << "row " << i;
  }
}

TEST(Service, StringEditMatchesSequential) {
  Service svc;
  Json::Obj o;
  o["op"] = "string_edit";
  o["x"] = "kitten";
  o["y"] = "sitting";
  const std::string resp = svc.request(Json(std::move(o)).dump());
  const auto expect =
      apps::edit_distance_seq("kitten", "sitting", apps::EditCosts{});
  EXPECT_EQ(result_int(resp, "cost"), expect.cost);
}

TEST(Service, ErrorsAreExplicit) {
  Service svc;
  EXPECT_NE(svc.request("this is not json").find("parse_error"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":77,"row":0})")
                .find("unknown_array"),
            std::string::npos);
  reg_random(svc, 8, 8, 1);
  EXPECT_NE(
      svc.request(R"({"op":"rowmin","array":0,"row":99})").find("out of range"),
      std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"bogus"})").find("unknown_op"),
            std::string::npos);
}

TEST(Service, UnregisterForgets) {
  Service svc;
  reg_random(svc, 8, 8, 1);
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":0})").find("ok"),
            std::string::npos);
  const Json r =
      Json::parse(svc.request(R"({"op":"unregister","array":0})"));
  EXPECT_TRUE(r.at("result").at("removed").as_bool());
  EXPECT_GE(r.at("result").at("cache_invalidated").as_int(), 1);
  // Regression: the cached signature from before the unregister must NOT
  // resurrect the array -- unregister invalidates every cache entry tagged
  // with the array id, so the exact same request misses and fails fresh.
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":0})")
                .find("unknown_array"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":1})")
                .find("unknown_array"),
            std::string::npos);
}

TEST(Service, UnregisterInvalidatesTubeOperandEntries) {
  Service svc;
  // Compatible pair: d is 8x6, e is 6x8 (tube needs d.cols == e.rows).
  ASSERT_EQ(result_int(reg_random(svc, 8, 6, 21), "array"), 0);
  ASSERT_EQ(result_int(reg_random(svc, 6, 8, 22), "array"), 1);
  const std::string q = R"({"op":"tubemax","d":0,"e":1,"i":2,"k":3})";
  EXPECT_NE(svc.request(q).find("\"ok\":true"), std::string::npos);
  // Unregistering EITHER operand must kill the cached composite answer.
  const Json r = Json::parse(svc.request(R"({"op":"unregister","array":1})"));
  EXPECT_TRUE(r.at("result").at("removed").as_bool());
  EXPECT_GE(r.at("result").at("cache_invalidated").as_int(), 1);
  EXPECT_NE(svc.request(q).find("unknown_array"), std::string::npos);
}

/// Run a mixed workload and return all response lines, in request order.
std::vector<std::string> run_workload(Service& svc) {
  std::vector<std::string> lines;
  lines.push_back(
      R"({"op":"register_random","rows":40,"cols":33,"seed":11})");
  lines.push_back(
      R"({"op":"register_random","rows":20,"cols":20,"seed":12,"kind":"inverse_monge"})");
  lines.push_back(
      R"({"op":"register_random","rows":24,"cols":18,"seed":13,"kind":"staircase"})");
  lines.push_back(
      R"({"op":"register_random","rows":16,"cols":12,"seed":14})");
  lines.push_back(
      R"({"op":"register_random","rows":12,"cols":10,"seed":15})");
  std::vector<std::string> out;
  for (const auto& l : lines) out.push_back(svc.request(l));
  // Array ids: 0 monge 40x33, 1 inverse 20x20, 2 staircase 24x18,
  // 3 monge 16x12, 4 monge 12x10.  (3,4) do not compose; use (3,3)? no --
  // tube needs d.cols == e.rows, so register a compatible pair.
  out.push_back(svc.request(
      R"({"op":"register_random","rows":12,"cols":9,"seed":16})"));  // id 5
  std::vector<std::string> queries;
  for (int row = 0; row < 12; ++row) {
    queries.push_back(R"({"op":"rowmin","array":0,"row":)" +
                      std::to_string(row) + "}");
    queries.push_back(R"({"op":"rowmax","array":1,"row":)" +
                      std::to_string(row % 20) + "}");
    queries.push_back(R"({"op":"staircase_rowmin","array":2,"row":)" +
                      std::to_string(row % 24) + "}");
    queries.push_back(R"({"op":"tubemax","d":3,"e":5,"i":)" +
                      std::to_string(row % 16) + R"(,"k":)" +
                      std::to_string(row % 9) + "}");
  }
  queries.push_back(R"({"op":"string_edit","x":"abcdef","y":"azced"})");
  queries.push_back(
      R"({"op":"largest_rect","points":[[0,0],[9,9],[2,7],[6,3],[4,4]]})");
  svc.pause();  // accumulate so coalescing actually sees a batch
  std::vector<std::future<std::string>> futs;
  for (const auto& q : queries) futs.push_back(svc.submit(q));
  svc.resume();
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

TEST(Service, ResponsesBitIdenticalAcrossThreadsBatchingAndCache) {
  ThreadGuard tg;
  std::vector<std::vector<std::string>> runs;
  // Profile 0: builtin.  Profile 1: parallel dispatch priced absurdly high,
  // so the planner routes everything to brute / sequential.  Profile 2:
  // parallel priced near free, so the planner always picks the kernel.
  // Responses must not depend on which variant actually ran.
  plan::CostProfile profiles[3] = {plan::builtin_profile(),
                                   plan::builtin_profile(),
                                   plan::builtin_profile()};
  profiles[1].id = "test-all-serial";
  profiles[1].par_dispatch_ns = 1e12;
  profiles[2].id = "test-all-parallel";
  profiles[2].par_dispatch_ns = 0;
  profiles[2].par_ns_per_work = 1e-6;
  profiles[2].par_depth_ns = 0;
  struct Config {
    std::size_t threads;
    bool coalesce;
    std::size_t cache;
    bool planner;
    int profile;
  };
  const Config configs[] = {
      {1, true, 4096, true, 0},  {8, true, 4096, true, 0},
      {8, false, 4096, true, 0}, {8, true, 0, true, 0},
      {8, true, 4096, false, 0}, {8, true, 4096, true, 1},
      {8, true, 4096, true, 2},  {8, false, 0, true, 1},
  };
  for (const Config& c : configs) {
    exec::set_num_threads(c.threads);
    ServiceOptions opts;
    opts.coalesce = c.coalesce;
    opts.cache_capacity = c.cache;
    opts.planner = c.planner;
    opts.profile = profiles[c.profile];
    Service svc(opts);
    runs.push_back(run_workload(svc));
    // A second service with the same options must answer the same bytes.
    Service svc2(opts);
    auto first = run_workload(svc2);
    EXPECT_EQ(first, runs.back());
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs[0]) << "config " << i << " diverged";
  }
}

TEST(Service, CacheHitsAreServedAndCounted) {
  Service svc;
  reg_random(svc, 16, 16, 3);
  const std::string q = R"({"op":"rowmin","array":0,"row":4})";
  const std::string r1 = svc.request(q);
  const std::string r2 = svc.request(q);
  EXPECT_EQ(r1, r2);
  const CacheStats s = svc.cache_stats();
  EXPECT_GE(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  // Different id / deadline must not defeat the cache (signature strips
  // them) and must not leak into the response of the other request.
  const std::string r3 =
      svc.request(R"({"op":"rowmin","array":0,"id":9,"row":4})");
  EXPECT_GE(svc.cache_stats().hits, 2u);
  EXPECT_NE(r3.find("\"id\":9"), std::string::npos);
}

TEST(Service, OverloadRejectsInsteadOfHangingOrDropping) {
  ServiceOptions opts;
  opts.queue_capacity = 4;
  opts.cache_capacity = 0;  // every request must reach the queue
  Service svc(opts);
  reg_random(svc, 16, 16, 3);
  svc.pause();  // hold the worker so the queue genuinely fills
  std::vector<std::future<std::string>> futs;
  constexpr std::size_t kSubmitted = 32;
  for (std::size_t i = 0; i < kSubmitted; ++i) {
    futs.push_back(svc.submit(R"({"op":"rowmin","array":0,"id":)" +
                              std::to_string(i) + R"(,"row":)" +
                              std::to_string(i % 16) + "}"));
  }
  svc.resume();
  std::size_t ok = 0, overloaded = 0;
  for (auto& f : futs) {
    const std::string resp = f.get();  // every future resolves: no drops
    if (resp.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(resp.find("overloaded"), std::string::npos) << resp;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kSubmitted);
  EXPECT_GE(ok, 4u);          // everything admitted was answered
  EXPECT_GE(overloaded, 1u);  // and the excess was rejected, not dropped
}

TEST(Service, ExpiredDeadlinesAnswerDeadlineExpired) {
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service svc(opts);
  reg_random(svc, 8, 8, 1);
  svc.pause();
  // The deadline is generous versus the predicted cost (so admission lets
  // it through) but expires while the worker is paused.
  auto fut = svc.submit(
      R"({"op":"rowmin","array":0,"row":0,"deadline_ms":20})");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  svc.resume();
  const std::string resp = fut.get();
  EXPECT_NE(resp.find("deadline_expired"), std::string::npos) << resp;
}

TEST(Service, UnmeetableDeadlinesRejectedAtAdmission) {
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service svc(opts);
  reg_random(svc, 64, 64, 1);
  svc.pause();  // the worker never runs: rejection must happen before it
  auto fut = svc.submit(
      R"({"op":"rowmin","array":0,"row":0,"deadline_ms":0})");
  const std::string resp = fut.get();  // resolves while still paused
  EXPECT_NE(resp.find("deadline_unmeetable"), std::string::npos) << resp;
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& rowmin = stats.at("endpoints").at("rowmin");
  EXPECT_EQ(rowmin.at("unmeetable").as_int(), 1);
  EXPECT_EQ(rowmin.at("requests").as_int(), 0);  // never entered the engine
  svc.resume();
}

TEST(Service, UnknownArrayPricesAtZeroAndExpiresInTheQueue) {
  // An unregistered array has shape 0 x 0, which prices at exactly 0 us,
  // so even a zero deadline is not unmeetable at admission: the line
  // runs inline, and finds its deadline passed by the queue's rule
  // (now >= deadline), answering with the worker's bytes.
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service svc(opts);
  EXPECT_EQ(
      svc.request(
          R"({"op":"rowmin","id":1,"array":99,"row":0,"deadline_ms":0})"),
      R"({"error":"deadline_expired","id":1,"ok":false})");
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& rowmin = stats.at("endpoints").at("rowmin");
  EXPECT_EQ(rowmin.at("unmeetable").as_int(), 0);
  EXPECT_EQ(rowmin.at("expired").as_int(), 1);
  EXPECT_EQ(stats.at("queue").at("admitted").as_int(), 0);
}

TEST(Service, DoublesAnswerAsWithoutACache) {
  // A number written as a double is not an integer, cold or warm: "row":
  // 1.0 answers what a cache-off service answers, even right after
  // "row":1 was cached.
  ServiceOptions off;
  off.cache_capacity = 0;
  Service cached, uncached(off);
  reg_random(cached, 8, 8, 4);
  reg_random(uncached, 8, 8, 4);
  const std::vector<std::string> lines = {
      R"({"op":"rowmin","id":1,"array":0,"row":1})",
      R"({"op":"rowmin","id":2,"array":0,"row":1.0})",
      R"({"op":"rowmin","id":3,"array":0,"row":1e0})",
      R"({"op":"rowmin","id":4,"array":0,"row":10e-1})",
      R"({"op":"rowmin","id":5,"array":0.0,"row":1})",
      R"({"op":"rowmin","id":6,"array":0,"row":1})"};
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
    for (const std::string& line : lines) {
      const std::string want = uncached.request(line);
      EXPECT_EQ(cached.request(line), want) << "pass " << pass << ": " << line;
      if (line.find("1.0") != std::string::npos ||
          line.find("e") != std::string::npos) {
        EXPECT_NE(want.find("expected integer"), std::string::npos) << want;
      }
    }
  }
  // "array":0.0 is not an integer operand id either.
  EXPECT_NE(uncached.request(lines[4]).find("missing or non-integer field"),
            std::string::npos);
  EXPECT_GE(cached.cache_stats().hits, 2u);
}

TEST(Service, EveryQueryLineCountsOneHitOrOneMiss) {
  // Inline misses (probed at admission), queued lines (probed again by
  // the worker), admission hits and traced lines (probed by the batcher
  // only): each query line counts exactly one cache hit or one miss, in
  // the cache's counters and in its endpoint's.
  Service svc;
  reg_random(svc, 16, 16, 7);
  std::size_t queries = 0;
  const auto rowmin = [&](int row) {
    ++queries;
    return svc.request(R"({"op":"rowmin","array":0,"row":)" +
                       std::to_string(row) + "}");
  };
  for (int row = 0; row < 8; ++row) rowmin(row);  // inline misses
  for (int row = 0; row < 8; ++row) rowmin(row);  // admission hits
  svc.pause();
  std::vector<std::future<std::string>> queued;
  for (int row = 4; row < 12; ++row) {  // queued: 4 hits, 4 misses
    queued.push_back(svc.submit(R"({"op":"rowmin","array":0,"row":)" +
                                std::to_string(row) + "}"));
    ++queries;
  }
  svc.resume();
  for (auto& f : queued) f.get();
  obs::set_enabled(true);
  for (int row = 10; row < 14; ++row) rowmin(row);  // traced: 2 hits
  obs::set_enabled(false);
  obs::reset();
  rowmin(99);  // out of range: a miss that errors
  const CacheStats cs = svc.cache_stats();
  EXPECT_EQ(cs.hits + cs.misses, queries);
  EXPECT_EQ(cs.hits, 8u + 4u + 2u);
  const Json st = Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& em = st.at("endpoints").at("rowmin");
  EXPECT_EQ(em.at("cache_hits").as_int() + em.at("cache_misses").as_int(),
            static_cast<std::int64_t>(queries));
  EXPECT_EQ(em.at("cache_hits").as_int(), static_cast<std::int64_t>(cs.hits));
}

TEST(Service, ExplainPricesASubmatrixQueryAtItsRegion) {
  // The direct plan is priced at the queried region, not the operand.
  Service svc;
  reg_random(svc, 4096, 1024, 3);
  const auto plan_of = [&](const std::string& region) {
    const Json j = Json::parse(svc.request(
        R"({"op":"explain","query":{"op":"submatrix_min","array":0,)" +
        region + "}}"));
    return j.at("result").at("plan");
  };
  const Json wide = plan_of(R"("r0":100,"r1":3000,"c0":10,"c1":900)");
  EXPECT_EQ(wide.at("shape").at("rows").as_int(), 2901);
  EXPECT_EQ(wide.at("shape").at("cols").as_int(), 891);
  EXPECT_FALSE(wide.at("use_index").as_bool());
  const plan::Planner planner(plan::builtin_profile(), true,
                              exec::num_threads());
  const double whole = planner.predicted_us(
      plan::QueryShape{plan::OpClass::SubmatrixSearch, 4096, 1024, 1});
  EXPECT_LT(wide.at("predicted_us").as_double(), whole);
  const Json cell = plan_of(R"("r0":7,"r1":7,"c0":9,"c1":9)");
  EXPECT_EQ(cell.at("shape").at("rows").as_int(), 1);
  EXPECT_EQ(cell.at("shape").at("cols").as_int(), 1);
  EXPECT_EQ(cell.at("algo").as_string(), "brute");
  // A malformed region prices at the whole operand, as before it fails.
  const Json bad = plan_of(R"("r0":9,"r1":7,"c0":0,"c1":9)");
  EXPECT_EQ(bad.at("shape").at("rows").as_int(), 4096);

  // Taking the index is weighed at the whole operand, whatever the
  // region: a 151 x 61 region's sequential price reads below the index's
  // but measures above it.
  svc.request(R"({"op":"index_build","array":0})");
  for (const char* region : {R"("r0":100,"r1":250,"c0":10,"c1":70)",
                             R"("r0":7,"r1":7,"c0":9,"c1":9)",
                             R"("r0":100,"r1":3000,"c0":10,"c1":900)"}) {
    const Json p = plan_of(region);
    EXPECT_TRUE(p.at("use_index").as_bool()) << region;
    EXPECT_LT(p.at("index_predicted_us").as_double(), whole) << region;
  }
  EXPECT_LT(plan_of(R"("r0":100,"r1":250,"c0":10,"c1":70)")
                .at("predicted_us")
                .as_double(),
            plan_of(R"("r0":100,"r1":250,"c0":10,"c1":70)")
                .at("index_predicted_us")
                .as_double());
}

TEST(Service, ConcurrentSubmittersGetConsistentAnswers) {
  ThreadGuard tg;
  exec::set_num_threads(8);
  Service svc;
  reg_random(svc, 32, 32, 9);
  Rng rng(9);
  const auto a = monge::random_monge(32, 32, rng);
  const auto expect = monge::row_minima_brute(a);
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&svc, &expect, &bad, t] {
      for (int i = 0; i < 64; ++i) {
        const std::size_t row = static_cast<std::size_t>((t * 13 + i) % 32);
        const std::string resp = svc.request(
            R"({"op":"rowmin","array":0,"row":)" + std::to_string(row) + "}");
        const Json j = Json::parse(resp);
        if (!j.at("ok").as_bool() ||
            j.at("result").at("value").as_int() != expect[row].value ||
            j.at("result").at("col").as_int() !=
                static_cast<std::int64_t>(expect[row].col)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(Service, StatsReportsCountersAndQueue) {
  // Planner off: the fixed parallel dispatch always charges PRAM work,
  // which is what the `charged` section of stats reports.
  ServiceOptions opts;
  opts.planner = false;
  Service svc(opts);
  reg_random(svc, 8, 8, 1);
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& rowmin = stats.at("endpoints").at("rowmin");
  EXPECT_EQ(rowmin.at("requests").as_int(), 2);
  EXPECT_EQ(rowmin.at("ok").as_int(), 2);
  EXPECT_GE(rowmin.at("cache_hits").as_int(), 1);
  EXPECT_EQ(stats.at("registry").at("arrays").as_int(), 1);
  EXPECT_EQ(stats.at("queue").at("capacity").as_int(), 1024);
  EXPECT_GE(stats.at("charged").at("work").as_int(), 1);
}

// ---------------------------------------------------------------------------
// Inline rule: a cheap query on an idle queue runs on the submitting thread
// ---------------------------------------------------------------------------

/// One submit_line, observed: where its answer ran and whether it had
/// arrived before submit_line returned.
struct Probe {
  std::atomic<bool> fired{false};
  std::thread::id thread;  // written before `fired` and the promise
  std::promise<std::string> answer;
  std::future<std::string> fut = answer.get_future();
  bool before_return = false;
};

std::shared_ptr<Probe> probe_submit(Service& svc, const std::string& line,
                                    InlineAllowance& allowance) {
  auto p = std::make_shared<Probe>();
  const auto fire = [p](std::string resp) {
    p->thread = std::this_thread::get_id();
    p->fired.store(true, std::memory_order_release);
    p->answer.set_value(std::move(resp));
  };
  std::string out;
  if (svc.submit_line(line, out, allowance,
                      [&]() -> Service::ResponseCallback { return fire; })) {
    fire(std::move(out));
  }
  p->before_return = p->fired.load(std::memory_order_acquire);
  return p;
}

Json stats_of(Service& svc) {
  return Json::parse(svc.request(R"({"op":"stats"})")).at("result");
}

std::int64_t inline_count(Service& svc) {
  return stats_of(svc).at("queue").at("inline").as_int();
}

std::string edit_line(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::string x(len, 'a'), y(len, 'a');
  for (char& c : x) c = static_cast<char>('a' + rng.uniform_int(0, 3));
  for (char& c : y) c = static_cast<char>('a' + rng.uniform_int(0, 3));
  return R"({"op":"string_edit","x":")" + x + R"(","y":")" + y + "\"}";
}

/// A default Service's price of one len x len string edit, in us, at
/// exactly that shape: 3 ns per cell of the (len + 1)^2 DP table.
double edit_price_us(std::size_t len) {
  const plan::Planner planner(plan::builtin_profile(), true,
                              exec::num_threads());
  return planner.predicted_us(
      plan::QueryShape{plan::OpClass::EditDistance, len, len, 1});
}

TEST(InlineRule, IdleQueueAnswersACheapQueryBeforeSubmitLineReturns) {
  Service svc;
  reg_random(svc, 64, 64, 3);
  const std::string q = R"({"op":"rowmin","id":7,"array":0,"row":5})";
  InlineAllowance allowance;
  const auto p = probe_submit(svc, q, allowance);
  EXPECT_TRUE(p->before_return);
  const std::string resp = p->fut.get();
  EXPECT_EQ(p->thread, std::this_thread::get_id());
  EXPECT_LT(allowance.left_us, kInlineAllowanceUs);  // charged its price
  const Json st = stats_of(svc);
  EXPECT_EQ(st.at("queue").at("inline").as_int(), 1);
  EXPECT_EQ(st.at("queue").at("admitted").as_int(), 0);
  EXPECT_EQ(st.at("batches").at("count").as_int(), 0);  // not a worker batch
  EXPECT_EQ(st.at("endpoints").at("rowmin").at("requests").as_int(), 1);
  EXPECT_EQ(st.at("endpoints").at("rowmin").at("ok").as_int(), 1);

  // The same bytes as the queued path (a paused service queues).
  Service queued;
  reg_random(queued, 64, 64, 3);
  queued.pause();
  auto fut = queued.submit(q);
  queued.resume();
  EXPECT_EQ(resp, fut.get());
  EXPECT_EQ(inline_count(queued), 0);
}

TEST(InlineRule, WorkPricedAboveTheAllowanceRunsOnTheWorker) {
  Service svc;
  // A 600-character edit is priced at its own shape, about 1.1 ms.
  ASSERT_GT(edit_price_us(600), kInlineAllowanceUs);
  const std::string line = edit_line(600, 11);
  InlineAllowance allowance;
  const auto p = probe_submit(svc, line, allowance);
  const std::string resp = p->fut.get();
  EXPECT_NE(p->thread, std::this_thread::get_id());
  EXPECT_EQ(allowance.left_us, kInlineAllowanceUs);  // nothing spent
  const Json req = Json::parse(line);
  EXPECT_EQ(result_int(resp, "cost"),
            apps::edit_distance_seq(req.at("x").as_string(),
                                    req.at("y").as_string(),
                                    apps::EditCosts{})
                .cost);
  const Json st = stats_of(svc);
  EXPECT_EQ(st.at("queue").at("inline").as_int(), 0);
  EXPECT_EQ(st.at("queue").at("admitted").as_int(), 1);
  EXPECT_EQ(st.at("batches").at("count").as_int(), 1);
}

TEST(InlineRule, PauseFaultsAndExplainQueue) {
  const std::string cheap = R"({"op":"rowmin","array":0,"row":1})";
  // Each case answers on the worker and leaves the allowance untouched.
  const auto expect_queued = [](Service& svc, const std::string& line,
                                const char* why) {
    InlineAllowance allowance;
    const auto p = probe_submit(svc, line, allowance);
    const std::string resp = p->fut.get();
    EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << why << resp;
    EXPECT_NE(p->thread, std::this_thread::get_id()) << why;
    EXPECT_EQ(allowance.left_us, kInlineAllowanceUs) << why;
  };
  {
    Service svc;
    reg_random(svc, 16, 16, 2);
    svc.pause();
    InlineAllowance allowance;
    const auto p = probe_submit(svc, cheap, allowance);
    EXPECT_FALSE(p->before_return);
    EXPECT_EQ(allowance.left_us, kInlineAllowanceUs);
    svc.resume();
    p->fut.get();
    EXPECT_NE(p->thread, std::this_thread::get_id());
    EXPECT_EQ(inline_count(svc), 0);
  }
  {
    Service svc;
    reg_random(svc, 16, 16, 2);
    fault::arm(1, 0);  // armed, never fires
    expect_queued(svc, R"({"op":"rowmin","array":0,"row":2})", "faults: ");
    fault::disarm();
    expect_queued(
        svc, R"({"op":"explain","query":{"op":"rowmin","array":0,"row":4}})",
        "explain: ");
    EXPECT_EQ(inline_count(svc), 0);
  }
}

TEST(InlineRule, TracingAndDeadlinesStayInline) {
  // Observation does not change the path: a traced query, one with its
  // own deadline and one inheriting --deadline-ms all run on the
  // submitting thread, and answer what an untraced, deadline-free
  // service does.
  const auto expect_inline = [](Service& svc, const std::string& line,
                                const char* why) {
    InlineAllowance allowance;
    const auto p = probe_submit(svc, line, allowance);
    EXPECT_TRUE(p->before_return) << why;
    const std::string resp = p->fut.get();
    EXPECT_EQ(p->thread, std::this_thread::get_id()) << why;
    EXPECT_LT(allowance.left_us, kInlineAllowanceUs) << why;
    Service plain;
    reg_random(plain, 16, 16, 2);
    Json req = Json::parse(line);
    req.obj().erase("deadline_ms");
    req.obj().erase("trace_id");
    EXPECT_EQ(resp, plain.request(req.dump())) << why;
  };
  {
    Service svc;
    reg_random(svc, 16, 16, 2);
    obs::set_enabled(true);
    expect_inline(svc, R"({"op":"rowmin","id":1,"array":0,"row":1})",
                  "tracing: ");
    expect_inline(
        svc, R"({"op":"rowmin","id":2,"array":0,"row":2,"trace_id":9})",
        "trace_id: ");
    obs::set_enabled(false);
    obs::reset();
    expect_inline(
        svc, R"({"op":"rowmin","id":3,"array":0,"row":3,"deadline_ms":60000})",
        "deadline_ms: ");
    EXPECT_EQ(inline_count(svc), 3);
  }
  {
    ServiceOptions opts;
    opts.default_deadline_ms = 60000;  // a deadline the request inherits
    Service svc(opts);
    reg_random(svc, 16, 16, 2);
    expect_inline(svc, R"({"op":"rowmin","id":4,"array":0,"row":1})",
                  "default deadline: ");
    EXPECT_EQ(inline_count(svc), 1);
  }
}

TEST(InlineRule, TracedInlineQueryEmitsOneRequestSpan) {
  Service svc;
  reg_random(svc, 16, 16, 2);
  obs::reset();
  obs::set_enabled(true);
  InlineAllowance allowance;
  const auto p = probe_submit(
      svc, R"({"op":"rowmin","id":1,"array":0,"row":5,"trace_id":77})",
      allowance);
  EXPECT_TRUE(p->before_return);
  p->fut.get();
  obs::set_enabled(false);
  const obs::Snapshot snap = obs::collect();
  obs::reset();
  std::size_t requests = 0;
  for (const obs::SpanRecord& r : snap.spans) {
    if (std::string_view(r.name) != "serve.request") continue;
    ++requests;
    EXPECT_EQ(r.trace_id, 77u);
    EXPECT_EQ(std::string_view(r.detail), "rowmin");
  }
  EXPECT_EQ(requests, 1u);
  EXPECT_EQ(inline_count(svc), 1);
}

TEST(InlineRule, OneReadInlinesOnlyThePrefixItsAllowanceCovers) {
  // Twelve lines of one read share a grant.  Each 99-character edit is
  // priced at its own shape, 30 us, so the first floor(allowance / price)
  // = 8 run inline, in order; the line that no longer fits and
  // everything after it queue.
  constexpr std::size_t kLines = 12;
  const double price = edit_price_us(99);
  const auto prefix =
      static_cast<std::size_t>(std::floor(kInlineAllowanceUs / price));
  ASSERT_GT(prefix, 0u);
  ASSERT_LT(prefix, kLines);
  Service svc;
  InlineAllowance allowance;
  std::vector<std::shared_ptr<Probe>> probes;
  for (std::size_t i = 0; i < kLines; ++i) {
    probes.push_back(probe_submit(svc, edit_line(99, 100 + i), allowance));
  }
  for (std::size_t i = 0; i < kLines; ++i) {
    const std::string resp = probes[i]->fut.get();
    EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    if (i < prefix) {
      EXPECT_TRUE(probes[i]->before_return) << "line " << i;
      EXPECT_EQ(probes[i]->thread, std::this_thread::get_id()) << "line " << i;
    } else {
      EXPECT_NE(probes[i]->thread, std::this_thread::get_id()) << "line " << i;
    }
  }
  EXPECT_EQ(inline_count(svc), static_cast<std::int64_t>(prefix));
  EXPECT_NEAR(allowance.left_us,
              kInlineAllowanceUs - static_cast<double>(prefix) * price, 1e-9);
}

TEST(InlineRule, IdleBankGrantsOnlyWhileWaitsCoverBusyTime) {
  using us = std::chrono::microseconds;
  const us cap(static_cast<us::rep>(kIdleBankUs));
  const auto full = [](const InlineAllowance& a) {
    return a.left_us == kInlineAllowanceUs;
  };
  IdleBank bank;
  const auto t = ServeClock::now();
  bank.waited(t, t);  // settle construction-to-t as busy time
  EXPECT_FALSE(full(bank.grant(t)));  // nothing banked yet
  EXPECT_EQ(bank.grant(t).left_us, 0.0);

  // A wait twice the cap banks the cap, which covers input read up to
  // kIdleBankUs after the wait ended.
  auto at = t + 2 * cap;
  bank.waited(t, at);
  EXPECT_TRUE(full(bank.grant(at)));
  EXPECT_TRUE(full(bank.grant(at + cap - us(1))));
  EXPECT_FALSE(full(bank.grant(at + cap + us(1))));

  // Busy for the cap plus 500 us, then a 100-us wait: the bank is 400 us
  // short, so input gets an empty grant until the thread has idled that
  // long.
  bank.waited(at + cap + us(500), at + cap + us(600));
  at += cap + us(600);
  EXPECT_FALSE(full(bank.grant(at)));
  bank.waited(at, at + us(500));
  at += us(500);
  EXPECT_TRUE(full(bank.grant(at)));
  EXPECT_FALSE(full(bank.grant(at + us(150))));

  // A long busy spell is remembered only down to -kIdleBankUs: after a
  // second of work, a wait of the cap plus 100 us leaves 100 us.
  const auto busy_until = at + std::chrono::seconds(1);
  bank.waited(busy_until, busy_until + cap + us(100));
  at = busy_until + cap + us(100);
  EXPECT_TRUE(full(bank.grant(at + us(50))));
  EXPECT_FALSE(full(bank.grant(at + us(150))));
}

TEST(InlineRule, InlineAndWorkerRunsOverlapWithConsistentAnswers) {
  // Cheap row queries run inline on four submitting threads while long
  // edits keep the worker busy, so the batcher runs on both at once
  // (TSan runs this at PMONGE_THREADS=8).  No cache: a repeated row
  // would be a cached hit that never reaches the batcher.
  ThreadGuard tg;
  exec::set_num_threads(8);
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service svc(opts);
  reg_random(svc, 32, 32, 9);
  Rng rng(9);
  const auto a = monge::random_monge(32, 32, rng);
  const auto expect = monge::row_minima_brute(a);
  std::atomic<int> bad{0};
  std::vector<std::thread> ts;
  ts.emplace_back([&svc, &bad] {
    for (std::uint64_t i = 0; i < 6; ++i) {
      const std::string line = edit_line(300, 200 + i);
      const Json req = Json::parse(line);
      const std::int64_t want =
          apps::edit_distance_seq(req.at("x").as_string(),
                                  req.at("y").as_string(), apps::EditCosts{})
              .cost;
      const Json j = Json::parse(svc.request(line));
      if (!j.at("ok").as_bool() || j.at("result").at("cost").as_int() != want) {
        bad.fetch_add(1);
      }
    }
  });
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&svc, &expect, &bad, t] {
      for (int i = 0; i < 48; ++i) {
        const std::size_t row = static_cast<std::size_t>((t * 7 + i) % 32);
        const Json j = Json::parse(svc.request(
            R"({"op":"rowmin","array":0,"row":)" + std::to_string(row) + "}"));
        if (!j.at("ok").as_bool() ||
            j.at("result").at("value").as_int() != expect[row].value) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0);
  const Json st = stats_of(svc);
  EXPECT_GE(st.at("batches").at("count").as_int(), 6);  // every edit queued
  EXPECT_GT(st.at("queue").at("inline").as_int(), 0);
}

TEST(Service, RegisterValidateRejectsNonMonge) {
  Service svc;
  // 2x2 anti-Monge array: a[0][0]+a[1][1] > a[0][1]+a[1][0].
  const std::string resp = svc.request(
      R"({"op":"register_dense","rows":2,"cols":2,"data":[5,0,0,0],"validate":true})");
  EXPECT_NE(resp.find("not_monge"), std::string::npos) << resp;
  const std::string ok = svc.request(
      R"({"op":"register_dense","rows":2,"cols":2,"data":[0,0,0,0],"validate":true})");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
}

}  // namespace
}  // namespace pmonge::serve
