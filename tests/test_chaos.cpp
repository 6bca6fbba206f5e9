// Seeded chaos harness for the fault-injection layer (src/fault) and the
// serve stack's resilience machinery (retry / breaker / degradation;
// docs/robustness.md).
//
// The headline is the soak: for each seed, the SAME deterministic
// workload -- thousands of mixed queries in pause/resume bursts -- runs
// against a fault-free service and a faulted one (every site armed), and
// every response must be BYTE-IDENTICAL.  That is the serve layer's
// central contract under fire: faults may cost retries, degraded plans,
// poisoned-cache recomputes and latency, but they may never change an
// answer.  The soak also audits the books: no hangs (ctest TIMEOUT is
// the backstop), no errors, and the retry/degraded/fault counters
// consistent with the injection counters.
//
// Every seeded failure prints ONE copy-pastable reproduction command
// (bench/bench_util.hpp):
//
//   PMONGE_CHAOS_SEED=<s> PMONGE_CHAOS_RATE=<bp> ctest -R chaos
//       --output-on-failure
//
// Knobs (CI's nightly long soak turns them up):
//   PMONGE_CHAOS_SEEDS    soak seed count            (default 20)
//   PMONGE_CHAOS_QUERIES  queries per seed           (default 1000)
//   PMONGE_CHAOS_RATE     injection rate in bp       (default 200 = 2%)
//   PMONGE_CHAOS_SEED     run ONLY this seed (the repro knob)
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace pmonge {
namespace {

using serve::Json;
using serve::Service;
using serve::ServiceOptions;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// The engine must actually have workers for the pooled fault sites to
/// exist (CI runners can be 1-CPU); pin 8 for every test here.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = exec::num_threads();
    exec::set_num_threads(8);
    fault::disarm();
  }
  void TearDown() override {
    fault::disarm();
    exec::set_num_threads(saved_threads_);
  }

 private:
  std::size_t saved_threads_ = 1;
};

std::string chaos_repro(std::uint64_t seed, std::uint32_t rate_bp) {
  return bench::repro_line("PMONGE_CHAOS_SEED=" + std::to_string(seed) +
                               " PMONGE_CHAOS_RATE=" + std::to_string(rate_bp),
                           "chaos");
}

/// Unwrap {"ok":true,"result":{...}} and return result[key] as int;
/// ADD_FAILURE + 0 on anything unexpected.
std::int64_t result_int(const std::string& resp, const char* key) {
  const Json r = Json::parse(resp);
  const Json* ok = r.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    ADD_FAILURE() << "expected ok response, got: " << resp;
    return 0;
  }
  return r.find("result")->find(key)->as_int();
}

std::int64_t register_random(Service& s, const char* kind, std::size_t rows,
                             std::size_t cols, std::uint64_t seed) {
  const std::string req = std::string("{\"op\":\"register_random\",\"kind\":\"") +
                          kind + "\",\"rows\":" + std::to_string(rows) +
                          ",\"cols\":" + std::to_string(cols) +
                          ",\"seed\":" + std::to_string(seed) + "}";
  return result_int(s.request(req), "array");
}

const Json* stats_section(const Json& stats, const char* section) {
  const Json* r = stats.find("result");
  return r == nullptr ? nullptr : r->find(section);
}

std::int64_t section_int(const Json& stats, const char* section,
                         const char* key) {
  const Json* sec = stats_section(stats, section);
  if (sec == nullptr) return -1;
  const Json* v = sec->find(key);
  return v == nullptr ? -1 : v->as_int();
}

// ---------------------------------------------------------------------------
// Fault layer unit tests: determinism, inertness, loud knobs
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DisarmedIsInert) {
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::config().armed);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(fault::should_fire(fault::Site::ExecChunkFault));
  }
  EXPECT_EQ(fault::injected_total(), 0u);
}

TEST_F(ChaosTest, ArmedAtRateZeroNeverFires) {
  fault::arm(7, 0);
  EXPECT_TRUE(fault::armed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(fault::should_fire(fault::Site::ServeGroupFault));
  }
  EXPECT_EQ(fault::injected_total(), 0u);
}

TEST_F(ChaosTest, FaultDecisionsDeterministic) {
  // The decision sequence per site is a pure function of (seed, site,
  // eval index): re-arming with the same seed replays it exactly.
  const auto sample = [](std::uint64_t seed) {
    fault::arm(seed, 5000);
    std::vector<bool> fired;
    for (int i = 0; i < 256; ++i) {
      fired.push_back(fault::should_fire(fault::Site::ExecChunkFault));
    }
    return fired;
  };
  const auto a = sample(42);
  const auto b = sample(42);
  EXPECT_EQ(a, b);
  const auto c = sample(43);
  EXPECT_NE(a, c);  // 256 coin flips colliding across seeds: never
  // Rate is honored to the right order of magnitude.
  fault::arm(9, 5000);
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    hits += fault::should_fire(fault::Site::PlanCorruptPlan) ? 1 : 0;
  }
  EXPECT_GT(hits, 700);
  EXPECT_LT(hits, 1300);
  EXPECT_EQ(fault::injected(fault::Site::PlanCorruptPlan),
            static_cast<std::uint64_t>(hits));
}

TEST_F(ChaosTest, SiteMaskGates) {
  fault::arm(5, 10000, 1u << static_cast<std::uint32_t>(
                           fault::Site::ServeCachePoison));
  EXPECT_TRUE(fault::should_fire(fault::Site::ServeCachePoison));
  EXPECT_FALSE(fault::should_fire(fault::Site::ExecChunkFault));
  EXPECT_FALSE(fault::should_fire(fault::Site::ServeGroupFault));
}

TEST_F(ChaosTest, EnvKnobsParseLoudly) {
  EXPECT_THROW(fault::parse_sites("bogus_site"), std::invalid_argument);
  EXPECT_THROW(fault::parse_sites("exec.chunk_fault,nope"),
               std::invalid_argument);
  EXPECT_EQ(fault::parse_sites("all"), fault::kAllSites);
  const std::uint32_t two =
      fault::parse_sites("exec.chunk_fault,serve.group_fault");
  EXPECT_EQ(two, (1u << 1) | (1u << 3));
  EXPECT_EQ(fault::parse_sites(fault::sites_to_string(two)), two);
  EXPECT_EQ(fault::sites_to_string(fault::kAllSites), "all");
}

TEST_F(ChaosTest, CachePoisonDetectedAndRecomputed) {
  serve::ShardedLruCache cache(64, 2);
  fault::arm(3, 10000, 1u << static_cast<std::uint32_t>(
                           fault::Site::ServeCachePoison));
  cache.put("k", "correct-bytes");
  // Every get re-verifies the checksum: the poisoned entry is dropped
  // and reported as a miss, never served.
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.stats().poisoned, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  fault::disarm();
  cache.put("k", "correct-bytes");
  const auto hit = cache.get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "correct-bytes");
}

// ---------------------------------------------------------------------------
// Serve resilience unit tests: exact accounting under 100% rates
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, RetriesExhaustedAccounting) {
  // Breaker disabled (cooldown 0), 100% group faults: every group burns
  // max_retries + 1 attempts and answers fault_injected.
  ServiceOptions opts;
  opts.cache_capacity = 0;
  opts.coalesce = false;
  opts.resilience.max_retries = 2;
  opts.resilience.breaker_cooldown = 0;
  Service service(opts);
  const std::int64_t a = register_random(service, "monge", 24, 24, 1);
  fault::arm(11, 10000, 1u << static_cast<std::uint32_t>(
                            fault::Site::ServeGroupFault));
  for (int q = 0; q < 6; ++q) {
    const std::string resp = service.request(
        "{\"op\":\"rowmin\",\"array\":" + std::to_string(a) +
        ",\"row\":" + std::to_string(q) + "}");
    const Json r = Json::parse(resp);
    EXPECT_FALSE(r.find("ok")->as_bool()) << resp;
    EXPECT_EQ(r.find("error")->as_string(),
              "fault_injected: serve.group_fault after 3 attempt(s)")
        << resp;
  }
  fault::disarm();
  const Json stats = Json::parse(service.request("{\"op\":\"stats\"}"));
  EXPECT_EQ(section_int(stats, "resilience", "fault_errors"), 6);
  EXPECT_EQ(section_int(stats, "resilience", "retries"), 12);
  EXPECT_EQ(section_int(stats, "resilience", "degraded_groups"), 0);
  EXPECT_EQ(section_int(stats, "resilience", "breaker_opens"), 0);
  const Json* ep = stats.find("result")->find("endpoints")->find("rowmin");
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->find("errors")->as_int(), 6);
  EXPECT_EQ(ep->find("retried")->as_int(), 12);
  EXPECT_EQ(ep->find("degraded")->as_int(), 0);
}

TEST_F(ChaosTest, BreakerDegradesAndRecovers) {
  // 100% group faults with threshold 1 / cooldown 8: the first attempt
  // of a non-degraded group always fails and opens the breaker; the
  // degraded (sequential, pool-free) attempts always succeed with the
  // exact same bytes.  The arithmetic below is fully deterministic:
  // groups 1 and 9 fail once and reopen the breaker, everything runs
  // degraded, and no request ever errors.
  ServiceOptions opts;
  opts.cache_capacity = 0;
  opts.coalesce = false;
  opts.resilience.max_retries = 3;
  opts.resilience.breaker_threshold = 1;
  opts.resilience.breaker_cooldown = 8;
  Service faulty(opts);
  ServiceOptions plain_opts;
  plain_opts.cache_capacity = 0;
  Service plain(plain_opts);
  const std::int64_t fa = register_random(faulty, "monge", 32, 32, 2);
  const std::int64_t pa = register_random(plain, "monge", 32, 32, 2);
  ASSERT_EQ(fa, pa);

  fault::arm(12, 10000, 1u << static_cast<std::uint32_t>(
                            fault::Site::ServeGroupFault));
  for (int q = 0; q < 10; ++q) {
    const std::string line = "{\"op\":\"rowmax\",\"array\":" +
                             std::to_string(fa) +
                             ",\"row\":" + std::to_string(q) + "}";
    const std::string got = faulty.request(line);
    fault::disarm();
    const std::string want = plain.request(line);
    fault::arm(12, 10000, 1u << static_cast<std::uint32_t>(
                              fault::Site::ServeGroupFault));
    EXPECT_EQ(got, want) << "degraded bytes differ at query " << q;
  }
  fault::disarm();
  const Json stats = Json::parse(faulty.request("{\"op\":\"stats\"}"));
  EXPECT_EQ(section_int(stats, "resilience", "degraded_groups"), 10);
  EXPECT_EQ(section_int(stats, "resilience", "breaker_opens"), 2);
  EXPECT_EQ(section_int(stats, "resilience", "retries"), 2);
  EXPECT_EQ(section_int(stats, "resilience", "fault_errors"), 0);
  const Json* ep = stats.find("result")->find("endpoints")->find("rowmax");
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->find("errors")->as_int(), 0);
  EXPECT_EQ(ep->find("ok")->as_int(), 10);
  EXPECT_EQ(ep->find("degraded")->as_int(), 10);
}

TEST_F(ChaosTest, CorruptPlanRotatesOnlyAmongTheClassRoutes) {
  // 100% plan.corrupt_plan: every group runs its class's next route.  A
  // small tube search rotates from the brute scan to the parallel kernel
  // (tube has no sequential route); a string edit stays on the DP, its
  // only route.  The bytes match a fault-free service either way.
  ServiceOptions opts;
  opts.cache_capacity = 0;
  Service faulty(opts);
  Service plain(opts);
  for (Service* s : {&faulty, &plain}) {
    register_random(*s, "monge", 6, 5, 3);  // tube d
    register_random(*s, "monge", 5, 7, 4);  // tube e
  }
  for (const char* line : {R"({"op":"tubemax","d":0,"e":1,"i":2,"k":3})",
                           R"({"op":"string_edit","x":"kitten","y":"sit"})"}) {
    fault::arm(13, 10000, 1u << static_cast<std::uint32_t>(
                              fault::Site::PlanCorruptPlan));
    const std::string got = faulty.request(line);
    fault::disarm();
    EXPECT_EQ(got, plain.request(line)) << line;
  }
  const Json stats = Json::parse(faulty.request(R"({"op":"stats"})"));
  EXPECT_EQ(section_int(stats, "plans", "brute"), 1);  // the edit
  EXPECT_EQ(section_int(stats, "plans", "sequential"), 0);
  EXPECT_EQ(section_int(stats, "plans", "parallel"), 1);  // the tube
}

// ---------------------------------------------------------------------------
// The soak
// ---------------------------------------------------------------------------

struct SoakWorkload {
  std::vector<std::string> lines;  // deterministic from the seed
};

/// Register the soak's operand set; ids are deterministic (fresh
/// service) so the workload can bake them in.
struct SoakArrays {
  std::int64_t monge, inverse, stair, tube_d, tube_e;
};

SoakArrays register_soak_arrays(Service& s, std::uint64_t seed) {
  SoakArrays a;
  a.monge = register_random(s, "monge", 96, 96, seed);
  a.inverse = register_random(s, "inverse_monge", 72, 80, seed + 1);
  a.stair = register_random(s, "staircase", 80, 64, seed + 2);
  a.tube_d = register_random(s, "monge", 40, 48, seed + 3);
  a.tube_e = register_random(s, "monge", 48, 36, seed + 4);
  return a;
}

SoakWorkload make_workload(std::uint64_t seed, const SoakArrays& a,
                           std::size_t queries) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  SoakWorkload w;
  w.lines.reserve(queries);
  const auto arr = [](std::int64_t id) { return std::to_string(id); };
  for (std::size_t q = 0; q < queries; ++q) {
    std::string line;
    switch (rng.uniform_int(0, 7)) {
      case 0:
        line = "{\"op\":\"rowmin\",\"array\":" + arr(a.monge) +
               ",\"row\":" + std::to_string(rng.uniform_int(0, 95)) + "}";
        break;
      case 1:
        line = "{\"op\":\"rowmax\",\"array\":" + arr(a.monge) +
               ",\"row\":" + std::to_string(rng.uniform_int(0, 95)) + "}";
        break;
      case 2:
        line = "{\"op\":\"rowmax\",\"array\":" + arr(a.inverse) +
               ",\"row\":" + std::to_string(rng.uniform_int(0, 71)) + "}";
        break;
      case 3:
        line = "{\"op\":\"staircase_rowmin\",\"array\":" + arr(a.stair) +
               ",\"row\":" + std::to_string(rng.uniform_int(0, 79)) + "}";
        break;
      case 4:
        line = "{\"op\":\"staircase_rowmax\",\"array\":" + arr(a.stair) +
               ",\"row\":" + std::to_string(rng.uniform_int(0, 79)) + "}";
        break;
      case 5:
        line = "{\"op\":\"tubemin\",\"d\":" + arr(a.tube_d) +
               ",\"e\":" + arr(a.tube_e) +
               ",\"i\":" + std::to_string(rng.uniform_int(0, 39)) +
               ",\"k\":" + std::to_string(rng.uniform_int(0, 35)) + "}";
        break;
      case 6:
        line = "{\"op\":\"tubemax\",\"d\":" + arr(a.tube_d) +
               ",\"e\":" + arr(a.tube_e) +
               ",\"i\":" + std::to_string(rng.uniform_int(0, 39)) +
               ",\"k\":" + std::to_string(rng.uniform_int(0, 35)) + "}";
        break;
      default: {
        std::string x, y;
        const int nx = static_cast<int>(rng.uniform_int(1, 24));
        const int ny = static_cast<int>(rng.uniform_int(1, 24));
        for (int i = 0; i < nx; ++i) {
          x += static_cast<char>('a' + rng.uniform_int(0, 3));
        }
        for (int i = 0; i < ny; ++i) {
          y += static_cast<char>('a' + rng.uniform_int(0, 3));
        }
        line = "{\"op\":\"string_edit\",\"x\":\"" + x + "\",\"y\":\"" + y +
               "\"}";
        break;
      }
    }
    w.lines.push_back(std::move(line));
  }
  return w;
}

ServiceOptions soak_options(std::uint64_t seed) {
  ServiceOptions opts;
  opts.queue_capacity = 4096;
  opts.batch_max = 48;
  opts.cache_capacity = 1024;
  opts.cache_shards = 4;
  opts.coalesce = seed % 2 == 0;
  opts.planner = seed % 3 != 0;
  // Generous retry budget: at a 2% rate the odds of 9 attempts in a row
  // failing are ~1e-10 per group, so the bit-identity assertion below
  // cannot flake on exhausted retries.
  opts.resilience.max_retries = 8;
  return opts;
}

/// Run the workload in pause/resume bursts (so batches really coalesce)
/// and return all response lines in submission order.
std::vector<std::string> run_workload(Service& s, const SoakWorkload& w,
                                      std::uint64_t seed) {
  Rng rng(seed ^ 0xdeadbeefULL);
  std::vector<std::string> out;
  out.reserve(w.lines.size());
  std::size_t at = 0;
  while (at < w.lines.size()) {
    const std::size_t burst =
        std::min(w.lines.size() - at,
                 static_cast<std::size_t>(8 + rng.uniform_int(0, 24)));
    std::vector<std::future<std::string>> futs;
    futs.reserve(burst);
    s.pause();
    for (std::size_t i = 0; i < burst; ++i) {
      futs.push_back(s.submit(w.lines[at + i]));
    }
    s.resume();
    for (auto& f : futs) out.push_back(f.get());
    at += burst;
  }
  return out;
}

TEST_F(ChaosTest, SoakFaultsNeverChangeResponses) {
  const std::size_t nseeds = static_cast<std::size_t>(
      support::env_uint_or("PMONGE_CHAOS_SEEDS", 20, 1));
  const std::size_t queries = static_cast<std::size_t>(
      support::env_uint_or("PMONGE_CHAOS_QUERIES", 1000, 1));
  const auto rate = static_cast<std::uint32_t>(
      support::env_uint_or("PMONGE_CHAOS_RATE", 200, 0));
  std::vector<std::uint64_t> seeds;
  if (const auto only = support::env_uint("PMONGE_CHAOS_SEED")) {
    seeds.push_back(*only);
  } else {
    for (std::size_t i = 1; i <= nseeds; ++i) seeds.push_back(i);
  }

  for (const std::uint64_t seed : seeds) {
    const std::string repro = chaos_repro(seed, rate);

    // Fault-free baseline.
    fault::disarm();
    SoakWorkload workload;
    std::vector<std::string> want;
    {
      Service baseline(soak_options(seed));
      const SoakArrays arrays = register_soak_arrays(baseline, seed);
      workload = make_workload(seed, arrays, queries);
      want = run_workload(baseline, workload, seed);
    }
    for (const std::string& resp : want) {
      ASSERT_NE(resp.find("\"ok\":true"), std::string::npos)
          << repro << "\n  baseline (fault-free) errored: " << resp;
    }

    // Same workload with every site armed.
    fault::arm(seed, rate);
    std::vector<std::string> got;
    Json stats{};
    {
      Service faulted(soak_options(seed));
      const SoakArrays arrays = register_soak_arrays(faulted, seed);
      ASSERT_EQ(arrays.monge, 0) << repro;  // fresh service, same ids
      got = run_workload(faulted, workload, seed);
      fault::disarm();  // stats themselves run fault-free
      stats = Json::parse(faulted.request("{\"op\":\"stats\"}"));
    }

    ASSERT_EQ(got.size(), want.size()) << repro;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << repro << "\n  query  : " << workload.lines[i]
          << "\n  at index " << i << " of " << want.size();
    }

    // Accounting: nothing errored, and the resilience counters are
    // consistent with what actually fired.
    const Json* endpoints = stats.find("result")->find("endpoints");
    ASSERT_NE(endpoints, nullptr) << repro;
    for (const auto& [op, m] : endpoints->obj()) {
      if (op == "stats") continue;  // control plane
      EXPECT_EQ(m.find("errors")->as_int(), 0)
          << repro << "\n  endpoint " << op << " reported errors";
    }
    EXPECT_EQ(section_int(stats, "resilience", "fault_errors"), 0) << repro;
    // (stats ran after disarm() so the counters are frozen; arm() reset
    // them at the top of this leg, so they cover exactly this seed.)
    const Json* fault_sec = stats_section(stats, "fault");
    ASSERT_NE(fault_sec, nullptr) << repro;
    const Json* injected = fault_sec->find("injected");
    const std::int64_t group_faults =
        injected->find("serve.group_fault")->as_int();
    const std::int64_t retries = section_int(stats, "resilience", "retries");
    const std::int64_t batch_retries =
        section_int(stats, "resilience", "batch_retries");
    if (group_faults > 0) {
      EXPECT_GE(retries + batch_retries, 1)
          << repro << "\n  group faults fired but nothing retried";
    }
    // Every detected poisoning is an injection that happened; entries
    // can also be evicted or never re-read, so <= not ==.
    EXPECT_LE(section_int(stats, "cache", "poisoned"),
              injected->find("serve.cache_poison")->as_int())
        << repro;
  }
}

TEST_F(ChaosTest, DelaySitesOnlyCostLatency) {
  // Delay-only mask at a high rate: pure reordering pressure.  Bytes
  // must not move at all.
  const std::uint32_t delay_mask =
      (1u << static_cast<std::uint32_t>(fault::Site::ExecChunkDelay)) |
      (1u << static_cast<std::uint32_t>(fault::Site::ServeAdmitJitter)) |
      (1u << static_cast<std::uint32_t>(fault::Site::ServeSlowResponse));
  const std::uint64_t seed = 77;
  fault::disarm();
  SoakWorkload workload;
  std::vector<std::string> want;
  {
    Service baseline(soak_options(seed));
    const SoakArrays arrays = register_soak_arrays(baseline, seed);
    workload = make_workload(seed, arrays, 120);
    want = run_workload(baseline, workload, seed);
  }
  fault::arm(seed, 2000, delay_mask);
  std::vector<std::string> got;
  {
    Service faulted(soak_options(seed));
    register_soak_arrays(faulted, seed);
    got = run_workload(faulted, workload, seed);
  }
  fault::disarm();
  EXPECT_GT(fault::injected_total(), 0u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << chaos_repro(seed, 2000)
                               << "\n  query: " << workload.lines[i];
  }
}

}  // namespace
}  // namespace pmonge
