// Observability-layer tests: the per-thread span rings (wraparound and
// dropped accounting), trace-id propagation admission -> batched group ->
// plan -> kernel, Chrome trace-event well-formedness, the Prometheus
// exposition, the bit-identity of query responses tracing on/off, and a
// concurrent stress shape meant to run under TSan (ctest -L obs with
// -DPMONGE_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

namespace pmonge::obs {
namespace {

using serve::Json;
using serve::Service;
using serve::ServiceOptions;

struct ThreadGuard {
  std::size_t saved = exec::num_threads();
  ~ThreadGuard() { exec::set_num_threads(saved); }
};

/// Every test starts traced with clean rings and leaves tracing off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
    set_ring_capacity(4096);
  }
};

std::size_t count_named(const Snapshot& snap, const char* name) {
  std::size_t n = 0;
  for (const SpanRecord& s : snap.spans) {
    if (std::string_view(s.name) == name) ++n;
  }
  return n;
}

TEST_F(ObsTest, SpanDisabledIsInert) {
  set_enabled(false);
  {
    Span s("test.off");
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(collect().spans.size(), 0u);
}

TEST_F(ObsTest, RingWraparoundAndDroppedAccounting) {
  set_ring_capacity(16);
  // A fresh thread gets a fresh ring at the new capacity; 40 spans into
  // 16 slots must keep the *newest* 16 and count 24 drop-oldest events.
  std::thread t([] {
    for (int i = 0; i < 40; ++i) {
      SpanRecord rec;
      rec.name = "test.wrap";
      rec.start_us = static_cast<std::uint64_t>(i);
      rec.dur_us = 1;
      emit(rec);
    }
  });
  t.join();
  const Snapshot snap = collect();
  EXPECT_EQ(count_named(snap, "test.wrap"), 16u);
  EXPECT_EQ(snap.dropped, 24u);
  EXPECT_EQ(dropped_total(), 24u);  // cumulative, not drained by collect
  // The survivors are the last 16 emitted, in emission order.
  std::vector<std::uint64_t> starts;
  for (const SpanRecord& s : snap.spans) {
    if (std::string_view(s.name) == "test.wrap") starts.push_back(s.start_us);
  }
  ASSERT_EQ(starts.size(), 16u);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i], 24 + i);
  }
}

TEST_F(ObsTest, TraceContextNestsAndRestores) {
  EXPECT_EQ(current_trace_id(), 0u);
  {
    TraceContext outer(7);
    EXPECT_EQ(current_trace_id(), 7u);
    {
      TraceContext inner(9);
      EXPECT_EQ(current_trace_id(), 9u);
    }
    EXPECT_EQ(current_trace_id(), 7u);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST_F(ObsTest, DetailTruncatesSafely) {
  SpanRecord rec;
  rec.set_detail("a_dynamic_label_longer_than_the_buffer");
  EXPECT_EQ(std::string(rec.detail), "a_dynamic_label_lon");  // 19 + NUL
  rec.set_detail("ok");
  EXPECT_EQ(std::string(rec.detail), "ok");
}

// ---------------------------------------------------------------------------
// End-to-end: trace ids across a batched group
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceIdPropagatesAcrossBatchedGroup) {
  Service svc;
  ASSERT_NE(svc.request(
                R"({"op":"register_random","rows":24,"cols":20,"seed":3})")
                .find("\"ok\":true"),
            std::string::npos);
  reset();  // only the query flow below should be in the rings

  // Two queries on the same array with client-supplied trace ids,
  // coalesced into one group by pausing the worker.
  svc.pause();
  auto f1 =
      svc.submit(R"({"op":"rowmin","array":0,"row":1,"trace_id":111})");
  auto f2 =
      svc.submit(R"({"op":"rowmin","array":0,"row":2,"trace_id":222})");
  svc.resume();
  const std::string r1 = f1.get();
  const std::string r2 = f2.get();
  EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
  EXPECT_NE(r2.find("\"ok\":true"), std::string::npos) << r2;
  // Trace ids never leak into response bytes.
  EXPECT_EQ(r1.find("trace"), std::string::npos);

  // Every span below is guaranteed buffered before the responses above
  // resolved (the worker emits spans, then fulfills promises); only the
  // enclosing serve.batch span closes later, so it is asserted in
  // ServeTraceOpEmitsWorkerLanes instead.
  const Snapshot snap = collect();
  std::set<std::uint64_t> admit_ids, request_ids, group_ids, plan_ids,
      kernel_ids;
  for (const SpanRecord& s : snap.spans) {
    const std::string_view name(s.name);
    if (name == "serve.admit") admit_ids.insert(s.trace_id);
    if (name == "serve.request") request_ids.insert(s.trace_id);
    if (name == "serve.group") group_ids.insert(s.trace_id);
    if (name == "plan.select") plan_ids.insert(s.trace_id);
    if (name == "serve.kernel") kernel_ids.insert(s.trace_id);
  }
  // Both requests visible individually at admission and completion...
  EXPECT_TRUE(admit_ids.count(111) && admit_ids.count(222));
  EXPECT_TRUE(request_ids.count(111) && request_ids.count(222));
  // ...and the group/plan/kernel spans carry the first member's id.
  EXPECT_TRUE(group_ids.count(111)) << "group ids: " << group_ids.size();
  EXPECT_TRUE(plan_ids.count(111));
  EXPECT_TRUE(kernel_ids.count(111));
}

TEST_F(ObsTest, AdmissionSpansLandOnTheSubmittersLaneAtArrival) {
  // A queued query's serve.admit span is the arrival instant, emitted by
  // the worker with the batch's spans but on the lane that admitted it;
  // its serve.request span starts there.  An inline query's serve.admit
  // holds its serve.request, both on the submitting thread's lane.
  Service svc;
  svc.request(R"({"op":"register_random","rows":24,"cols":20,"seed":3})");
  reset();
  const std::uint32_t me = this_lane();
  svc.pause();
  auto queued =
      svc.submit(R"({"op":"rowmin","array":0,"row":1,"trace_id":301})");
  svc.resume();
  queued.get();
  svc.request(R"({"op":"rowmin","array":0,"row":2,"trace_id":302})");

  const Snapshot snap = collect();
  const auto find = [&](std::string_view name, std::uint64_t id) {
    const SpanRecord* hit = nullptr;
    int n = 0;
    for (const SpanRecord& s : snap.spans) {
      if (std::string_view(s.name) == name && s.trace_id == id) {
        hit = &s;
        ++n;
      }
    }
    EXPECT_EQ(n, 1) << name << " " << id;
    return hit;
  };
  const SpanRecord* qa = find("serve.admit", 301);
  const SpanRecord* qr = find("serve.request", 301);
  const SpanRecord* ia = find("serve.admit", 302);
  const SpanRecord* ir = find("serve.request", 302);
  ASSERT_TRUE(qa && qr && ia && ir);
  EXPECT_EQ(qa->lane, me);
  EXPECT_NE(qr->lane, me);  // the worker's
  EXPECT_EQ(qa->dur_us, 0u);
  EXPECT_EQ(qa->start_us, qr->start_us);
  EXPECT_EQ(std::string(qa->detail), "rowmin");
  EXPECT_EQ(ia->lane, me);
  EXPECT_EQ(ir->lane, me);
  EXPECT_LE(ia->start_us, ir->start_us);
  EXPECT_GE(ia->start_us + ia->dur_us, ir->start_us + ir->dur_us);
}

TEST_F(ObsTest, MintedIdsCoverUntaggedQueries) {
  Service svc;
  svc.request(R"({"op":"register_random","rows":8,"cols":8,"seed":1})");
  reset();
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  const Snapshot snap = collect();
  bool found = false;
  for (const SpanRecord& s : snap.spans) {
    if (std::string_view(s.name) == "serve.request" && s.trace_id != 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "tracing on must mint an id for untagged queries";
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceWellFormed) {
  set_lane_name("test-main");
  {
    Span outer("test.outer");
    outer.set_trace(42);
    outer.set_detail("rowmin");
    outer.set_arg("members", 3);
    outer.set_charged(10, 200);
  }
  { Span plain("test.plain"); }

  const Json doc = chrome_trace_json(collect());
  // Canonical dump must re-parse (this is exactly what --trace-out
  // writes and what Perfetto ingests).
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);

  const auto& events = doc.at("traceEvents").arr();
  ASSERT_GE(events.size(), 3u);  // >= 1 metadata + 2 spans
  bool saw_meta = false, saw_span = false;
  for (const Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_EQ(e.at("pid").as_int(), 1);
    ASSERT_TRUE(e.find("tid") != nullptr);
    if (ph == "M") {
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      EXPECT_FALSE(e.at("args").at("name").as_string().empty());
      saw_meta = true;
    } else {
      ASSERT_EQ(ph, "X");
      EXPECT_TRUE(e.find("ts") != nullptr && e.find("dur") != nullptr);
      if (e.at("name").as_string() == "test.outer") {
        const Json& args = e.at("args");
        EXPECT_EQ(args.at("trace_id").as_int(), 42);
        EXPECT_EQ(args.at("detail").as_string(), "rowmin");
        EXPECT_EQ(args.at("members").as_int(), 3);
        EXPECT_EQ(args.at("charged_time").as_int(), 10);
        EXPECT_EQ(args.at("charged_work").as_int(), 200);
      }
      saw_span = true;
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_EQ(doc.at("otherData").at("dropped_spans").as_int(), 0);
}

TEST_F(ObsTest, ServeTraceOpEmitsWorkerLanes) {
  ThreadGuard guard;
  exec::set_num_threads(4);
  ServiceOptions opts;
  opts.planner = false;  // fixed parallel dispatch: the kernel fans out
  {
    Service svc2(opts);
    svc2.request(
        R"({"op":"register_random","rows":128,"cols":128,"seed":9})");
    // Traced queries run inline on an idle service; a held worker makes
    // each of these a worker batch of its own.
    for (int r = 0; r < 8; ++r) {
      svc2.pause();
      auto answer = svc2.submit(R"({"op":"rowmin","array":0,"row":)" +
                                std::to_string(r * 16) + "}");
      svc2.resume();
      answer.get();
    }
    const std::string resp = svc2.request(R"({"op":"trace"})");
    const Json j = Json::parse(resp);
    ASSERT_TRUE(j.at("ok").as_bool()) << resp;
    const Json& doc = j.at("result");
    std::set<std::string> lanes;
    std::set<std::string> names;
    for (const Json& e : doc.at("traceEvents").arr()) {
      if (e.at("ph").as_string() == "M") {
        lanes.insert(e.at("args").at("name").as_string());
      } else {
        names.insert(e.at("name").as_string());
      }
    }
    // The acceptance shape: admission, batch, group, kernel, and at
    // least one pool-worker lane present in one serve-run trace.  (The
    // first 8 of the 9 worker batches have provably closed -- the
    // worker popped the next batch -- so serve.batch is race-free
    // here, unlike right after a single f.get().)
    EXPECT_TRUE(names.count("serve.admit"));
    EXPECT_TRUE(names.count("serve.batch"));
    EXPECT_TRUE(names.count("serve.group"));
    EXPECT_TRUE(names.count("serve.kernel"));
    EXPECT_TRUE(names.count("exec.jobs"));
    bool has_worker_lane = false;
    for (const std::string& l : lanes) {
      if (l.rfind("pool-worker-", 0) == 0) has_worker_lane = true;
    }
    EXPECT_TRUE(has_worker_lane);
    EXPECT_TRUE(lanes.count("serve-worker"));
    // Draining is destructive: the second trace holds only stragglers
    // (the trace ops' own admit spans, the last serve.batch close),
    // never the bulk that the first drain carried away.
    const std::int64_t first_spans =
        doc.at("otherData").at("span_count").as_int();
    const Json again = Json::parse(svc2.request(R"({"op":"trace"})"));
    EXPECT_LT(again.at("result").at("otherData").at("span_count").as_int(),
              first_spans / 2);
  }
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PrometheusExpositionParsesWithoutDuplicates) {
  Service svc;
  svc.request(R"({"op":"register_random","rows":16,"cols":16,"seed":2})");
  svc.request(R"({"op":"rowmin","array":0,"row":0})");
  svc.request(R"({"op":"rowmin","array":0,"row":1})");
  svc.request(R"({"op":"string_edit","x":"abc","y":"adc"})");

  const Json resp =
      Json::parse(svc.request(R"({"op":"stats","format":"prometheus"})"));
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("result").at("format").as_string(), "prometheus");
  const std::string& text = resp.at("result").at("text").as_string();

  const std::regex help_re(R"(^# HELP [a-zA-Z_][a-zA-Z0-9_]* .+$)");
  const std::regex type_re(
      R"(^# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)$)");
  const std::regex sample_re(
      R"(^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9][0-9eE+.\-]*$)");

  std::set<std::string> series;   // name{labels} must be unique
  std::set<std::string> typed;    // # TYPE once per family
  std::istringstream in(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, help_re)) << line;
    } else if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
      EXPECT_TRUE(typed.insert(line).second) << "duplicate family: " << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
      const std::string key = line.substr(0, line.rfind(' '));
      EXPECT_TRUE(series.insert(key).second) << "duplicate series: " << key;
      ++samples;
    }
  }
  EXPECT_GE(samples, 20u);
  for (const char* family :
       {"pmonge_requests_total", "pmonge_request_latency_us",
        "pmonge_queue_depth", "pmonge_queue_high_water",
        "pmonge_exec_threads", "pmonge_exec_worker_busy_us_total",
        "pmonge_trace_enabled", "pmonge_plans_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << "missing family " << family;
  }
  // The histogram is a real cumulative one ending at +Inf.
  EXPECT_NE(text.find("pmonge_request_latency_us_bucket{"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  // Unknown formats reject loudly; "json" is the explicit default.
  EXPECT_NE(svc.request(R"({"op":"stats","format":"xml"})")
                .find("unknown stats format"),
            std::string::npos);
  EXPECT_NE(svc.request(R"({"op":"stats","format":"json"})")
                .find("\"endpoints\""),
            std::string::npos);
}

TEST_F(ObsTest, StatsReportsQueueDepthAndExecProfile) {
  ServiceOptions opts;
  opts.queue_capacity = 8;
  Service svc(opts);
  svc.request(R"({"op":"register_random","rows":16,"cols":16,"seed":4})");
  svc.pause();
  std::vector<std::future<std::string>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(svc.submit(R"({"op":"rowmin","array":0,"row":)" +
                              std::to_string(i) + "}"));
  }
  // Stats is control-plane: answered synchronously while the worker is
  // paused, so the standing depth is visible.
  const Json stats =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  EXPECT_EQ(stats.at("queue").at("depth").as_int(), 3);
  EXPECT_GE(stats.at("queue").at("high_water").as_int(), 3);
  EXPECT_EQ(stats.at("queue").at("capacity").as_int(), 8);
  svc.resume();
  for (auto& f : futs) f.get();

  const Json after =
      Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  EXPECT_EQ(after.at("queue").at("depth").as_int(), 0);
  EXPECT_GE(after.at("queue").at("high_water").as_int(), 3);
  EXPECT_EQ(after.at("exec").at("threads").as_int(),
            static_cast<std::int64_t>(exec::num_threads()));
  EXPECT_TRUE(after.at("exec").find("workers") != nullptr);
  EXPECT_TRUE(after.at("exec").at("external").find("chunks") != nullptr);
  EXPECT_TRUE(after.at("trace").at("enabled").as_bool());
}

// ---------------------------------------------------------------------------
// Bit-identity tracing on/off
// ---------------------------------------------------------------------------

std::vector<std::string> run_stream() {
  Service svc;
  std::vector<std::string> out;
  out.push_back(svc.request(
      R"({"op":"register_random","rows":32,"cols":24,"seed":77})"));
  out.push_back(svc.request(
      R"({"op":"register_random","rows":16,"cols":16,"seed":78,"kind":"staircase"})"));
  for (int r = 0; r < 8; ++r) {
    out.push_back(svc.request(R"({"op":"rowmin","array":0,"id":)" +
                              std::to_string(r) + R"(,"row":)" +
                              std::to_string(r) + "}"));
  }
  out.push_back(svc.request(
      R"({"op":"staircase_rowmin","array":1,"id":100,"row":3})"));
  out.push_back(
      svc.request(R"({"op":"string_edit","id":101,"x":"kitten","y":"sitting"})"));
  return out;
}

TEST_F(ObsTest, ResponsesBitIdenticalTracingOnOff) {
  set_enabled(false);
  const auto off = run_stream();
  set_enabled(true);
  const auto on = run_stream();
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i], on[i]) << "response " << i;
  }

  // A client-supplied trace_id is envelope-only: same answer bytes, and
  // it must hit the same cache entry as the untagged twin.
  Service svc;
  svc.request(R"({"op":"register_random","rows":16,"cols":16,"seed":5})");
  const std::string plain =
      svc.request(R"({"op":"rowmin","array":0,"id":7,"row":2})");
  const std::string tagged = svc.request(
      R"({"op":"rowmin","array":0,"id":7,"row":2,"trace_id":999})");
  EXPECT_EQ(plain, tagged);
  const Json stats = Json::parse(svc.request(R"({"op":"stats"})")).at("result");
  EXPECT_GE(stats.at("cache").at("hits").as_int(), 1);

  EXPECT_NE(svc.request(R"({"op":"rowmin","array":0,"row":2,"trace_id":0})")
                .find("trace_id must be positive"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency stress (run under TSan via the obs label)
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ConcurrentEmitAndCollect) {
  set_ring_capacity(64);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 4000;
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> emitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      TraceContext ctx(t + 1);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Span s("test.stress");
        s.set_arg("i", i);
        emitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent collector: drains while writers are pushing.
  std::uint64_t drained = 0;
  for (int round = 0; round < 50; ++round) {
    drained += count_named(collect(), "test.stress");
  }
  for (auto& th : threads) th.join();
  drained += count_named(collect(), "test.stress");
  // Every span was either collected exactly once or counted dropped
  // (ring-full overwrite or collector contention) exactly once.
  EXPECT_EQ(drained + dropped_total(), emitted.load());
}

}  // namespace
}  // namespace pmonge::obs
