// Tests of the benchmark's own logic: quantiles and their sample counts,
// span self time, response classification, seeded request streams and
// the result line.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core.hpp"
#include "serve/json.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_sample(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantile, NearestRankWithSampleCounts) {
  const std::vector<double> v = iota_sample(10);
  const Quantile p50 = quantile_sorted(v, 0.5);
  EXPECT_EQ(p50.value, 5);
  EXPECT_EQ(p50.samples, 10u);
  EXPECT_EQ(p50.beyond, 5u);
  const Quantile p90 = quantile_sorted(v, 0.9);
  EXPECT_EQ(p90.value, 9);
  EXPECT_EQ(p90.beyond, 1u);
  const Quantile p99 = quantile_sorted(v, 0.99);
  EXPECT_EQ(p99.value, 10);
  EXPECT_EQ(p99.beyond, 0u);
}

TEST(Quantile, TailRanksDoNotSlipOnRounding) {
  // 0.999 * 1000 is 998.99999... in binary; the rank must still be 999.
  const std::vector<double> v = iota_sample(1000);
  const Quantile q = quantile_sorted(v, 0.999);
  EXPECT_EQ(q.value, 999);
  EXPECT_EQ(q.beyond, 1u);
  const Quantile p99 = quantile_sorted(iota_sample(100000), 0.99);
  EXPECT_EQ(p99.value, 99000);
  EXPECT_EQ(p99.beyond, 1000u);
}

TEST(Quantile, EmptyAndSingleSamples) {
  const Quantile e = quantile_sorted({}, 0.5);
  EXPECT_EQ(e.samples, 0u);
  EXPECT_EQ(e.value, 0);
  const Quantile one = quantile_sorted({7}, 0.999);
  EXPECT_EQ(one.value, 7);
  EXPECT_EQ(one.samples, 1u);
  EXPECT_EQ(one.beyond, 0u);
}

TEST(Quantile, MedianOfUnsortedSamples) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // nearest rank: the lower middle
  EXPECT_EQ(median({}), 0);
}

TEST(Quantile, WindowedMedianIgnoresADisturbedMinority) {
  // Windows 0-2 read ~10; window 3 is disturbed (100s).  The pooled
  // median would shift toward the disturbed window; this one does not.
  const std::vector<double> v = {9, 10, 11, 10, 10, 12, 9, 10, 100, 100, 100, 100};
  const std::vector<std::uint32_t> w = {0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 3};
  EXPECT_EQ(windowed_median(v, w), 10);
  EXPECT_EQ(windowed_median({5, 7}, {4, 4}), 5);  // empty windows are skipped
  EXPECT_EQ(windowed_median({}, {}), 0);
}

Span span(const char* name, std::uint64_t lo, std::uint64_t hi, std::int64_t parent,
          std::uint32_t lane = 0) {
  Span s;
  s.name = name;
  s.start_ns = lo;
  s.end_ns = hi;
  s.parent = parent;
  s.lane = lane;
  return s;
}

TEST(SelfTime, NestedChildren) {
  const std::vector<Span> s = {span("root", 0, 100, -1), span("a", 10, 30, 0),
                               span("a.x", 15, 20, 1), span("b", 50, 60, 0)};
  const std::vector<std::uint64_t> self = self_times(s);
  EXPECT_EQ(self[0], 70u);  // 100 - (20 + 10)
  EXPECT_EQ(self[1], 15u);  // 20 - 5
  EXPECT_EQ(self[2], 5u);
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two concurrent children (e.g. branches on two lanes) cover [10, 70).
  const std::vector<Span> s = {span("fork", 0, 100, -1), span("b0", 10, 50, 0),
                               span("b1", 30, 70, 0), span("b2", 40, 45, 0)};
  EXPECT_EQ(self_times(s)[0], 40u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> s = {span("p", 0, 100, -1), span("late", 90, 120, 0),
                               span("early", 0, 0, 0)};
  const std::vector<std::uint64_t> self = self_times(s);
  EXPECT_EQ(self[0], 90u);
  EXPECT_EQ(self[1], 30u);
  const std::vector<Span> covered = {span("p", 10, 20, -1), span("c", 0, 50, 0)};
  EXPECT_EQ(self_times(covered)[0], 0u);
}

TEST(SelfTime, LinkByLaneNestsByTime) {
  std::vector<Span> s = {span("c", 20, 30, -1, 1), span("a", 0, 100, -1, 1),
                         span("b", 10, 20, -1, 1), span("b.x", 12, 15, -1, 1),
                         span("other", 50, 60, -1, 2)};
  link_by_lane(s);
  EXPECT_EQ(s[1].parent, -1);  // a
  EXPECT_EQ(s[2].parent, 1);   // b in a
  EXPECT_EQ(s[3].parent, 2);   // b.x in b
  EXPECT_EQ(s[0].parent, 1);   // c starts as b ends: a sibling, in a
  EXPECT_EQ(s[4].parent, -1);  // another lane never links
  EXPECT_EQ(self_times(s)[1], 80u);
}

TEST(Classify, OkRefusedFailedMismatch) {
  const std::string ok = R"({"id":3,"ok":true,"result":{"col":1,"value":-5}})";
  const std::string other = R"({"id":3,"ok":true,"result":{"col":2,"value":-5}})";
  EXPECT_EQ(classify(ok, ok), Outcome::Ok);
  EXPECT_EQ(classify(other, ok), Outcome::Mismatch);
  EXPECT_EQ(classify(R"({"id":3,"ok":false,"error":"overloaded"})", ok), Outcome::Refused);
  EXPECT_EQ(classify(R"({"ok":false,"error":"deadline_expired"})", ok), Outcome::Refused);
  EXPECT_EQ(classify(R"({"ok":false,"error":"deadline_unmeetable: 5 > 1"})", ok),
            Outcome::Refused);
  EXPECT_EQ(classify(R"({"id":3,"ok":false,"error":"unknown_array: 9"})", ok),
            Outcome::Failed);
  EXPECT_EQ(classify("garbage", ok), Outcome::Failed);
  EXPECT_EQ(classify("", ok), Outcome::Failed);
}

TEST(Classify, TallyCountsEveryOutcome) {
  Tally t;
  for (const Outcome o : {Outcome::Ok, Outcome::Ok, Outcome::Refused, Outcome::Failed,
                          Outcome::Mismatch}) {
    t.add(o);
  }
  EXPECT_EQ(t.ok, 2u);
  EXPECT_EQ(t.refused, 1u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.mismatched, 1u);
  EXPECT_EQ(t.not_ok(), 3u);
}

TEST(Streams, HotLinesAreSeededAndCoverEverySignature) {
  const auto a = hot_lines(7, 0, 500, 0, 1);
  EXPECT_EQ(a, hot_lines(7, 0, 500, 0, 1));
  EXPECT_NE(a, hot_lines(8, 0, 500, 0, 1));
  EXPECT_NE(a, hot_lines(7, 1, 500, 0, 1));  // connections differ
  std::set<std::string> sigs;
  for (std::size_t i = 0; i < 3 * kHotRows; ++i) {
    const std::string& l = a[i];
    sigs.insert(l.substr(0, l.find(",\"id\"")) + l.substr(l.find(",\"array\"")));
  }
  EXPECT_EQ(sigs.size(), 3 * kHotRows);
  EXPECT_EQ(a[0].find("{\"op\":\""), 0u);
}

TEST(Streams, BurstPlanIsSeededAndByteIdentical) {
  BurstSpec spec;
  spec.rate = 50;
  spec.warm_s = 1;
  spec.measure_s = 2;
  const BurstPlan a = burst_plan(11, spec);
  const BurstPlan b = burst_plan(11, spec);
  const BurstPlan c = burst_plan(12, spec);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.due_ns, b.due_ns);
  EXPECT_NE(a.lines, c.lines);
  EXPECT_NE(a.due_ns, c.due_ns);
  EXPECT_EQ(a.warm_bursts, 50u);
  EXPECT_EQ(a.due_ns.size(), 150u);
  EXPECT_EQ(a.lines.size(), 150u * spec.lines_per_burst);
  EXPECT_TRUE(std::is_sorted(a.due_ns.begin(), a.due_ns.end()));
  EXPECT_LT(a.due_ns[a.warm_bursts - 1], 1'000'000'000u);
  EXPECT_GE(a.due_ns[a.warm_bursts], 1'000'000'000u);
}

TEST(Streams, BurstPlanMixAndUniqueRegions) {
  BurstSpec spec;
  spec.rate = 100;
  spec.measure_s = 3;
  const BurstPlan p = burst_plan(3, spec);
  std::set<std::string> ops(p.ops.begin(), p.ops.end());
  EXPECT_EQ(ops, (std::set<std::string>{"rowmin", "rowmax", "staircase_rowmin",
                                        "submatrix_min", "submatrix_max", "string_edit"}));
  std::set<std::string> regions;
  std::size_t submatrix = 0;
  for (std::size_t i = 0; i < p.lines.size(); ++i) {
    if (!p.ops[i].starts_with("submatrix")) continue;
    ++submatrix;
    const std::string& l = p.lines[i];
    regions.insert(l.substr(l.find(",\"r0\"")));
  }
  EXPECT_GT(submatrix, 0u);
  EXPECT_EQ(regions.size(), submatrix);
  // Every line is a JSON object the service can parse.
  for (std::size_t i = 0; i < 200; ++i) {
    const auto doc = pmonge::serve::Json::parse(p.lines[i]);
    EXPECT_EQ(doc.at("id").as_int(), static_cast<std::int64_t>(i + 1));
  }
}

TEST(Streams, TraceIdsOnlyAddTheEnvelopeField) {
  BurstSpec spec;
  spec.measure_s = 1;
  const BurstPlan plain = burst_plan(5, spec);
  spec.trace_ids = true;
  const BurstPlan traced = burst_plan(5, spec);
  ASSERT_EQ(plain.lines.size(), traced.lines.size());
  EXPECT_EQ(plain.due_ns, traced.due_ns);
  for (std::size_t i = 0; i < plain.lines.size(); ++i) {
    std::string l = plain.lines[i];
    l.insert(l.size() - 1, ",\"trace_id\":" + std::to_string(i + 1));
    ASSERT_EQ(l, traced.lines[i]);
  }
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  Result r;
  r.attempted = 12;
  r.failed = 1;
  r.correct = false;
  r.set("latency_p50_us", 61.25, "us");
  r.set("setup_s", 0.0123456789012345, "s");
  const auto doc = pmonge::serve::Json::parse(r.json());
  EXPECT_EQ(doc.obj().size(), 4u);
  EXPECT_FALSE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("attempted").as_int(), 12);
  EXPECT_EQ(doc.at("failed").as_int(), 1);
  const auto& m = doc.at("metrics");
  EXPECT_EQ(m.at("latency_p50_us").at("value").as_double(), 61.25);
  EXPECT_EQ(m.at("setup_s").at("value").as_double(), 0.0123456789012345);
  EXPECT_EQ(m.at("setup_s").at("unit").as_string(), "s");
  EXPECT_EQ(json_number(1.0 / 0.0), "1e300");
}

}  // namespace
}  // namespace perfbench
