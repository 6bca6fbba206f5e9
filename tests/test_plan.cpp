// Planner tests: cost-model monotonicity, profile persistence (loud
// failures), pricing at the exact shape, and the serve-layer contracts --
// explain is well-formed for every query op, and the chosen variant is
// invisible in response bytes across shapes straddling the exec fork
// rule's kappa and the cost-model crossovers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "apps/string_edit.hpp"
#include "exec/thread_pool.hpp"
#include "par/monge_rowminima.hpp"
#include "plan/calibrate.hpp"
#include "plan/cost_model.hpp"
#include "plan/planner.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace pmonge::plan {
namespace {

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModel, MonotoneInEveryShapeDimension) {
  const CostProfile prof = builtin_profile();
  for (const OpClassInfo& cls : kOpClasses) {
    const OpClass op = cls.op;
    for (const Algo algo : cls.routes) {
      for (std::size_t t : {std::size_t{1}, std::size_t{8}}) {
        double prev_rows = -1, prev_cols = -1, prev_batch = -1;
        for (std::size_t k = 0; k <= 20; ++k) {
          const std::size_t s = std::size_t{1} << k;
          const double by_rows =
              predicted_ns(prof, algo, {op, s, 256, 4}, t);
          const double by_cols =
              predicted_ns(prof, algo, {op, 256, s, 4}, t);
          const double by_batch =
              predicted_ns(prof, algo, {op, 256, 256, s}, t);
          EXPECT_GE(by_rows, prev_rows) << cls.name << "/"
                                        << algo_name(algo) << " rows=" << s;
          EXPECT_GE(by_cols, prev_cols) << cls.name << "/"
                                        << algo_name(algo) << " cols=" << s;
          EXPECT_GE(by_batch, prev_batch)
              << cls.name << "/" << algo_name(algo) << " batch=" << s;
          prev_rows = by_rows;
          prev_cols = by_cols;
          prev_batch = by_batch;
        }
      }
    }
  }
}

TEST(CostModel, BuiltinCrossoversAreSane) {
  const CostProfile prof = builtin_profile();
  // A single row of a small operand: a brute scan beats paying the pool
  // dispatch constant.
  const QueryShape small{OpClass::RowSearch, 8, 8, 1};
  EXPECT_LT(predicted_ns(prof, Algo::Brute, small, 8),
            predicted_ns(prof, Algo::Parallel, small, 8));
  // A big coalesced batch on a big operand: the parallel kernel's
  // (b + n) lg n work divided over lanes beats b * n brute cells.
  const QueryShape big{OpClass::RowSearch, 1u << 14, 1u << 14, 1u << 10};
  EXPECT_LT(predicted_ns(prof, Algo::Parallel, big, 8),
            predicted_ns(prof, Algo::Brute, big, 8));
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

TEST(Planner, DisabledPlannerIsEachClassLastRoute) {
  const Planner p(builtin_profile(), /*enabled=*/false, 8);
  for (const OpClassInfo& cls : kOpClasses) {
    const Plan pl = p.plan({cls.op, 8, 8, 1});
    EXPECT_EQ(pl.algo, cls.routes.back()) << cls.name;
    EXPECT_EQ(pl.algo, cls.op == OpClass::EditDistance ? Algo::Brute
                                                       : Algo::Parallel)
        << cls.name;
  }
}

/// A profile under which the parallel route wins wherever it is listed.
CostProfile force_parallel_profile() {
  CostProfile prof = builtin_profile();
  prof.id = "force-parallel";
  prof.par_dispatch_ns = 0;
  prof.par_ns_per_work = 1e-6;
  prof.par_depth_ns = 0;
  return prof;
}

TEST(Planner, ParallelRouteReachableExactlyWhereListed) {
  const Planner p(force_parallel_profile(), true, 4);
  for (const OpClassInfo& cls : kOpClasses) {
    const bool listed = std::find(cls.routes.begin(), cls.routes.end(),
                                  Algo::Parallel) != cls.routes.end();
    EXPECT_EQ(p.plan({cls.op, 4096, 4096, 64}).algo == Algo::Parallel,
              listed)
        << cls.name;
  }
}

TEST(Planner, StringEditNeverPlansParallel) {
  // The simulated DIST-matrix composition is orders of magnitude slower
  // than the DP at every probed shape, so no profile, lane count or
  // planner setting may route an edit to it.
  const CostProfile profiles[] = {
      builtin_profile(),
      load_profile(std::string(PMONGE_SOURCE_DIR) +
                   "/profiles/sample_profile.json"),
      force_parallel_profile()};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 16; n <= 4096; n *= 2) {
    lengths.push_back(n);
    if (n < 4096) lengths.push_back(n + n / 2 + 1);
  }
  std::size_t plans = 0;
  for (const CostProfile& prof : profiles) {
    for (const bool enabled : {true, false}) {
      for (const std::size_t lanes : {1, 2, 4, 8}) {
        const Planner p(prof, enabled, lanes);
        for (const std::size_t x : lengths) {
          for (const std::size_t y : lengths) {
            for (std::size_t b = 1; b <= 64; b *= 2) {
              const Plan pl = p.plan({OpClass::EditDistance, x, y, b});
              ++plans;
              ASSERT_EQ(pl.algo, Algo::Brute)
                  << prof.id << (enabled ? " planner on" : " planner off")
                  << " lanes=" << lanes << " |x|=" << x << " |y|=" << y
                  << " batch=" << b;
              EXPECT_GT(pl.predicted_us, 0);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 3u * 2 * 4 * lengths.size() * lengths.size() * 7);
}

/// The cheapest listed route's price at exactly `shape`, in us.
double cheapest_us(const CostProfile& prof, const QueryShape& shape,
                   std::size_t lanes) {
  double best = std::numeric_limits<double>::infinity();
  for (const Algo a : op_class_info(shape.op).routes) {
    best = std::min(best, predicted_ns(prof, a, shape, lanes));
  }
  return best / 1000.0;
}

TEST(Planner, PricesEachShapeExactly) {
  const CostProfile prof = builtin_profile();
  const Planner on(prof, true, 4);
  const Planner off(prof, false, 4);
  // Between powers of two as well as at them, for every class.
  for (const OpClassInfo& cls : kOpClasses) {
    for (const std::size_t n : {1u, 3u, 13u, 99u, 600u, 1025u, 4096u}) {
      for (const std::size_t b : {1u, 3u, 17u, 100u}) {
        const QueryShape s{cls.op, n, n / 3 + 1, b};
        EXPECT_EQ(on.plan(s).predicted_us, cheapest_us(prof, s, 4))
            << cls.name << " n=" << n << " batch=" << b;
        EXPECT_EQ(off.plan(s).predicted_us,
                  predicted_ns(prof, cls.routes.back(), s, 4) / 1000.0)
            << cls.name << " n=" << n << " batch=" << b;
      }
    }
  }
  // A 99 x 99 edit fills 100^2 DP cells at 3 ns: 30 us (rounded up to
  // 128 x 128 it would read 49.9 us).
  const Plan e99 = on.plan({OpClass::EditDistance, 99, 99, 1});
  EXPECT_EQ(e99.algo, Algo::Brute);
  EXPECT_DOUBLE_EQ(e99.predicted_us, 30.0);
  // A 600 x 600 edit: 3 ns x 601^2 = 1,083.6 us (3,152 us at 1,024^2).
  EXPECT_NEAR(on.predicted_us({OpClass::EditDistance, 600, 600, 1}),
              1083.603, 1e-6);
  // 17 queried rows of a 4096 x 1024 operand: 17 x 1,024 brute cells
  // (26.1 us) undercut the sequential solver's 30.7 us, which wins at 32
  // rows.
  const Plan rows17 = on.plan({OpClass::RowSearch, 4096, 1024, 17});
  EXPECT_EQ(rows17.algo, Algo::Brute);
  EXPECT_DOUBLE_EQ(rows17.predicted_us, 1.5 * 17 * 1024 / 1000.0);
  EXPECT_EQ(on.plan({OpClass::RowSearch, 4096, 1024, 32}).algo,
            Algo::Sequential);
}

TEST(Planner, SmallShapesAvoidTheParallelKernel) {
  const Planner p(builtin_profile(), true, 8);
  const Plan small = p.plan({OpClass::RowSearch, 8, 8, 1});
  EXPECT_NE(small.algo, Algo::Parallel)
      << "an 8x8 single-row query should not pay pool dispatch";
  const Plan big = p.plan({OpClass::RowSearch, 1u << 14, 1u << 14, 1u << 10});
  EXPECT_EQ(big.algo, Algo::Parallel);
}

TEST(Planner, PredictedCostMonotoneInOperandSize) {
  // The admission number must grow (weakly) with the operand and the
  // batch, per op class, at powers of two and between them (2^k +
  // 2^(k-1) + 1): switching routes must not invert sizes.
  std::vector<std::size_t> sizes;
  for (std::size_t k = 0; k <= 14; ++k) {
    const std::size_t pow2 = std::size_t{1} << k;
    sizes.push_back(pow2);
    if (k >= 2) sizes.push_back(pow2 + pow2 / 2 + 1);
  }
  const Planner p(builtin_profile(), true, 8);
  for (const OpClassInfo& cls : kOpClasses) {
    double prev = -1, prev_batch = -1;
    for (const std::size_t n : sizes) {
      const double us = p.predicted_us({cls.op, n, n, 1});
      EXPECT_GE(us, prev) << cls.name << " n=" << n;
      EXPECT_GT(us, 0) << cls.name << " n=" << n;
      prev = us;
      const double by_batch = p.predicted_us({cls.op, 1000, 1000, n});
      EXPECT_GE(by_batch, prev_batch) << cls.name << " batch=" << n;
      prev_batch = by_batch;
    }
  }
}

// ---------------------------------------------------------------------------
// Profile persistence
// ---------------------------------------------------------------------------

TEST(Profile, JsonRoundTripPreservesEveryConstant) {
  CostProfile prof;
  prof.id = "round-trip";
  prof.brute_ns_per_cell = 1.25;
  prof.seq_ns_per_probe = 7.5;
  prof.edit_ns_per_cell = 2.75;
  prof.par_ns_per_work = 3.5;
  prof.par_dispatch_ns = 12345;
  prof.par_depth_ns = 99;
  const CostProfile back = profile_from_json(profile_to_json(prof), "mem");
  EXPECT_EQ(back.id, prof.id);
  EXPECT_DOUBLE_EQ(back.brute_ns_per_cell, prof.brute_ns_per_cell);
  EXPECT_DOUBLE_EQ(back.seq_ns_per_probe, prof.seq_ns_per_probe);
  EXPECT_DOUBLE_EQ(back.edit_ns_per_cell, prof.edit_ns_per_cell);
  EXPECT_DOUBLE_EQ(back.par_ns_per_work, prof.par_ns_per_work);
  EXPECT_DOUBLE_EQ(back.par_dispatch_ns, prof.par_dispatch_ns);
  EXPECT_DOUBLE_EQ(back.par_depth_ns, prof.par_depth_ns);
}

TEST(Profile, SaveLoadRoundTripThroughDisk) {
  const std::string path = testing::TempDir() + "pmonge_profile_rt.json";
  CostProfile prof;
  prof.id = "disk-rt";
  prof.par_dispatch_ns = 4242;
  save_profile(prof, path);
  const CostProfile back = load_profile(path);
  EXPECT_EQ(back.id, "disk-rt");
  EXPECT_DOUBLE_EQ(back.par_dispatch_ns, 4242);
  std::remove(path.c_str());
}

void expect_throw_quoting(const std::string& path, const std::string& text,
                          bool write_file) {
  if (write_file) {
    std::ofstream(path) << text;
  }
  try {
    load_profile(path);
    FAIL() << "load_profile(" << path << ") did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must quote the offending path, got: " << e.what();
  }
  if (write_file) std::remove(path.c_str());
}

TEST(Profile, LoadFailsLoudlyQuotingThePath) {
  const std::string dir = testing::TempDir();
  // Missing file.
  expect_throw_quoting(dir + "pmonge_no_such_profile.json", "", false);
  // Unparseable JSON.
  expect_throw_quoting(dir + "pmonge_corrupt.json", "{not json", true);
  // Wrong format tag.
  expect_throw_quoting(
      dir + "pmonge_wrong_format.json",
      R"({"format":"something-else","id":"x","brute_ns_per_cell":1,)"
      R"("seq_ns_per_probe":1,"edit_ns_per_cell":1,"par_ns_per_work":1,)"
      R"("par_dispatch_ns":1,"par_depth_ns":1})",
      true);
  // Non-positive constant.
  expect_throw_quoting(
      dir + "pmonge_nonpositive.json",
      R"({"format":"pmonge-profile-v1","id":"x","brute_ns_per_cell":0,)"
      R"("seq_ns_per_probe":1,"edit_ns_per_cell":1,"par_ns_per_work":1,)"
      R"("par_dispatch_ns":1,"par_depth_ns":1})",
      true);
}

TEST(Profile, CheckedInSampleProfileLoads) {
  // The profile CI serves with must stay valid.
  const CostProfile prof =
      load_profile(std::string(PMONGE_SOURCE_DIR) +
                   "/profiles/sample_profile.json");
  EXPECT_FALSE(prof.id.empty());
  EXPECT_GT(prof.brute_ns_per_cell, 0);
  EXPECT_GT(prof.par_ns_per_work, 0);
}

}  // namespace
}  // namespace pmonge::plan

namespace pmonge::serve {
namespace {

struct ThreadGuard {
  std::size_t saved = exec::num_threads();
  ~ThreadGuard() { exec::set_num_threads(saved); }
};

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

// ---------------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------------

TEST(Explain, WellFormedForEveryQueryOp) {
  Service svc;
  reg_random(svc, 12, 10, 1);                      // id 0: monge
  reg_random(svc, 10, 10, 2, "inverse_monge");     // id 1
  reg_random(svc, 12, 12, 3, "staircase");         // id 2
  reg_random(svc, 8, 6, 4);                        // id 3: tube d
  reg_random(svc, 6, 8, 5);                        // id 4: tube e
  const struct {
    const char* op_class;
    std::string query;
  } cases[] = {
      {"row_search", R"({"op":"rowmin","array":0,"row":3})"},
      {"row_search", R"({"op":"rowmax","array":1,"row":2})"},
      {"row_search", R"({"op":"staircase_rowmin","array":2,"row":5})"},
      {"row_search", R"({"op":"staircase_rowmax","array":2,"row":1})"},
      {"tube_search", R"({"op":"tubemax","d":3,"e":4,"i":1,"k":2})"},
      {"tube_search", R"({"op":"tubemin","d":3,"e":4,"i":0,"k":0})"},
      {"edit_distance", R"({"op":"string_edit","x":"kitten","y":"sitting"})"},
      {"geometric_app",
       R"({"op":"largest_rect","points":[[0,0],[9,9],[2,7],[6,3]]})"},
      {"geometric_app",
       R"({"op":"empty_rect","bound":[0,0,10,10],)"
       R"("points":[[2,2],[5,7],[8,3]]})"},
      {"geometric_app",
       R"({"op":"polygon_neighbors","kind":"nearest_visible",)"
       R"("p":[[0,0],[1,0],[1,1],[0,1]],"q":[[3,0],[4,0],[4,1],[3,1]]})"},
  };
  for (const auto& c : cases) {
    const std::string resp =
        svc.request(std::string(R"({"op":"explain","query":)") + c.query +
                    "}");
    const Json j = Json::parse(resp);
    ASSERT_TRUE(j.at("ok").as_bool()) << resp;
    const Json& r = j.at("result");
    const Json& pl = r.at("plan");
    const std::string algo = pl.at("algo").as_string();
    EXPECT_TRUE(algo == "brute" || algo == "sequential" ||
                algo == "parallel")
        << resp;
    EXPECT_GE(pl.at("grain").as_int(), 0) << resp;
    EXPECT_GT(pl.at("predicted_us").as_double(), 0) << resp;
    EXPECT_FALSE(pl.at("profile").as_string().empty()) << resp;
    EXPECT_TRUE(pl.at("planner_enabled").as_bool()) << resp;
    EXPECT_EQ(pl.at("shape").at("op_class").as_string(), c.op_class) << resp;
    EXPECT_GE(r.at("actual_us").as_double(), 0) << resp;
    ASSERT_TRUE(r.at("outcome").at("ok").as_bool()) << resp;
    // The inner bytes explain reports are the same bytes the plain query
    // produces (modulo the response envelope).
    const Json plain = Json::parse(svc.request(c.query));
    EXPECT_EQ(r.at("outcome").at("result").dump(),
              plain.at("result").dump())
        << c.query;
  }
}

TEST(Explain, RejectsMalformedWrappers) {
  Service svc;
  EXPECT_NE(svc.request(R"({"op":"explain"})").find("bad_request"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"explain","query":42})").find("bad_request"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"explain","query":{"op":"explain"}})")
                .find("bad_request"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"explain","query":{"op":"stats"}})")
                .find("bad_request"),
            std::string::npos);
}

TEST(Explain, StringEditPlansTheDpAtFourLanes) {
  // On a 4-vCPU Xeon at 4 lanes the simulated DIST-matrix composition
  // took 0.7-0.9 s on one 300-character pair and 0.34-0.43 s on eight
  // coalesced 128-character pairs; the DP answers both in about 3 ms.
  ThreadGuard tg;
  exec::set_num_threads(4);
  Service svc;
  Rng rng(22);
  const auto text = [&rng](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
      s += static_cast<char>('a' + rng.uniform_int(0, 3));
    }
    return s;
  };
  Json::Obj q;
  q["op"] = "string_edit";
  q["x"] = text(300);
  q["y"] = text(300);
  Json::Obj ex;
  ex["op"] = "explain";
  ex["query"] = Json(std::move(q));
  const std::string resp = svc.request(Json(std::move(ex)).dump());
  const Json j = Json::parse(resp);
  ASSERT_TRUE(j.at("ok").as_bool()) << resp;
  EXPECT_EQ(j.at("result").at("plan").at("algo").as_string(), "brute")
      << resp;

  std::vector<std::string> want;
  std::vector<std::future<std::string>> got;
  svc.pause();  // the eight pairs coalesce into one group
  for (std::int64_t k = 0; k < 8; ++k) {
    const std::string x = text(128);
    const std::string y = text(128);
    Json::Obj o;
    o["op"] = "string_edit";
    o["id"] = k;
    o["x"] = x;
    o["y"] = y;
    got.push_back(svc.submit(Json(std::move(o)).dump()));
    want.push_back(R"({"id":)" + std::to_string(k) +
                   R"(,"ok":true,"result":{"cost":)" +
                   std::to_string(apps::edit_distance_seq(x, y, {}).cost) +
                   "}}");
  }
  svc.resume();
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].get(), want[k]);
  }
  const Json plans =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result").at("plans");
  EXPECT_EQ(plans.at("parallel").as_int(), 0);
  EXPECT_EQ(plans.at("brute").as_int(), 2);  // explain's run and the group
}

// ---------------------------------------------------------------------------
// Differential bit-identity across the planner's choice space
// ---------------------------------------------------------------------------

/// Shapes chosen to straddle the exec fork rule's kappa and the
/// cost-model crossovers.  Each array's 8 coalesced row queries are one
/// 8-row search, which forks ceil(cols / 8) column blocks predicted at
/// rowmin_work(8, 8) = 448 each: 88 columns stay at or below kappa
/// (4928), 89 go above it (5376), 128 well above.
std::vector<std::string> straddle_workload(Service& svc) {
  static_assert(11 * 7 * 16 * 4 <= exec::kForkWork &&
                    12 * 7 * 16 * 4 > exec::kForkWork,
                "shape choices below assume kappa sits between 11 and 12 "
                "8x8 blocks");
  std::vector<std::string> out;
  out.push_back(reg_random(svc, 64, 88, 31));          // just below kappa
  out.push_back(reg_random(svc, 64, 89, 32));          // just above
  out.push_back(reg_random(svc, 66, 128, 33));         // well above
  out.push_back(reg_random(svc, 63, 65, 34, "staircase"));
  out.push_back(reg_random(svc, 66, 64, 35, "staircase"));
  out.push_back(reg_random(svc, 64, 8, 36));           // tube d (id 5)
  out.push_back(reg_random(svc, 8, 64, 37));           // tube e (id 6)
  std::vector<std::string> queries;
  for (int row = 0; row < 8; ++row) {
    for (int a = 0; a < 3; ++a) {
      queries.push_back(R"({"op":"rowmin","array":)" + std::to_string(a) +
                        R"(,"row":)" + std::to_string(row * 7) + "}");
      queries.push_back(R"({"op":"rowmax","array":)" + std::to_string(a) +
                        R"(,"row":)" + std::to_string(row * 7 + 1) + "}");
    }
    queries.push_back(R"({"op":"staircase_rowmin","array":3,"row":)" +
                      std::to_string(row * 7) + "}");
    queries.push_back(R"({"op":"staircase_rowmax","array":4,"row":)" +
                      std::to_string(row * 7 + 2) + "}");
    queries.push_back(R"({"op":"tubemax","d":5,"e":6,"i":)" +
                      std::to_string(row * 7) + R"(,"k":)" +
                      std::to_string(row * 9 % 64) + "}");
  }
  queries.push_back(
      R"({"op":"string_edit","x":"abcdefghabcdefgh","y":"azcedfghazcedfgh"})");
  svc.pause();
  std::vector<std::future<std::string>> futs;
  for (const auto& q : queries) futs.push_back(svc.submit(q));
  svc.resume();
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

TEST(Differential, PlanChoiceInvisibleAcrossKappaStraddlingShapes) {
  ThreadGuard tg;
  exec::set_num_threads(4);
  plan::CostProfile serial = plan::builtin_profile();
  serial.id = "force-serial";
  serial.par_dispatch_ns = 1e12;
  plan::CostProfile parallel = plan::builtin_profile();
  parallel.id = "force-parallel";
  parallel.par_dispatch_ns = 0;
  parallel.par_ns_per_work = 1e-6;
  parallel.par_depth_ns = 0;

  std::vector<std::vector<std::string>> runs;
  for (int cfg = 0; cfg < 4; ++cfg) {
    ServiceOptions opts;
    opts.cache_capacity = 0;  // every answer recomputed, nothing memoized
    if (cfg == 0) opts.planner = false;
    if (cfg == 1) opts.profile = plan::builtin_profile();
    if (cfg == 2) opts.profile = serial;
    if (cfg == 3) opts.profile = parallel;
    Service svc(opts);
    runs.push_back(straddle_workload(svc));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs[0]) << "config " << i << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Planner surface in stats
// ---------------------------------------------------------------------------

TEST(Stats, ReportsPlannerStateAndChoices) {
  Service svc;
  reg_random(svc, 8, 8, 1);
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  const Json& planner = stats.at("planner");
  EXPECT_TRUE(planner.at("enabled").as_bool());
  EXPECT_EQ(planner.at("profile").as_string(), "builtin-v1");
  const Json& plans = stats.at("plans");
  // An 8x8 single-row query is far below every parallel crossover.
  EXPECT_GE(plans.at("brute").as_int() + plans.at("sequential").as_int(), 1);
  EXPECT_EQ(plans.at("parallel").as_int(), 0);
  EXPECT_GE(stats.at("cache").at("invalidations").as_int(), 0);
}

}  // namespace
}  // namespace pmonge::serve
