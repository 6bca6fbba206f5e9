// The network transport suite (docs/networking.md): framing across
// arbitrary TCP chunking, the TCP server's bit-identity with stdin mode
// (replaying the golden transcripts over a real socket), concurrent
// clients, the per-connection backpressure valves (a slow reader must
// never grow server memory without bound), graceful drain under load,
// connection-limit and idle-timeout policy, and a chaos leg with the
// rpc.conn_drop / rpc.read_stall fault sites armed.
//
// Everything binds 127.0.0.1:0 (ephemeral) so suites can run in
// parallel.  The golden replay is the bit-identity anchor: the same
// transcripts test_golden.cpp pins against the in-process Service are
// replayed here through pmonge-rpc's framing and epoll loop, byte for
// byte.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "golden_match.hpp"
#include "obs/prometheus.hpp"
#include "rpc/client.hpp"
#include "rpc/framing.hpp"
#include "rpc/server.hpp"
#include "serve/service.hpp"

namespace pmonge {
namespace {

using namespace std::chrono_literals;

constexpr const char* kPing = R"({"op":"ping","id":1})";
constexpr const char* kPong = R"({"id":1,"ok":true,"result":{"pong":true}})";

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Framing, SplitIntoSingleBytes) {
  rpc::LineFramer f(64);
  const std::string stream = "abc\ndef\r\n\nghi\n";
  std::vector<std::string> lines;
  std::string out;
  for (const char c : stream) {
    f.feed(&c, 1);
    while (f.next(out) == rpc::LineFramer::Result::Line) lines.push_back(out);
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"abc", "def", "", "ghi"}));
  EXPECT_EQ(f.buffered(), 0u);
}

TEST(Framing, CoalescedLinesInOneFeed) {
  rpc::LineFramer f(64);
  const std::string stream = "one\ntwo\nthree\npartial";
  f.feed(stream.data(), stream.size());
  std::string out;
  std::vector<std::string> lines;
  while (f.next(out) == rpc::LineFramer::Result::Line) lines.push_back(out);
  EXPECT_EQ(lines, (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_EQ(f.buffered(), std::strlen("partial"));
  f.feed("\n", 1);
  ASSERT_EQ(f.next(out), rpc::LineFramer::Result::Line);
  EXPECT_EQ(out, "partial");
}

TEST(Framing, OversizedLineReportedOnceAndResyncs) {
  rpc::LineFramer f(8);
  // A 32-byte line fed in chunks: reported Oversized exactly once, its
  // bytes never buffered past the cap, and the next line frames fine.
  const std::string big(32, 'x');
  std::string out;
  std::size_t oversized = 0;
  for (std::size_t i = 0; i < big.size(); i += 4) {
    f.feed(big.data() + i, 4);
    rpc::LineFramer::Result r;
    while ((r = f.next(out)) != rpc::LineFramer::Result::NeedMore) {
      ASSERT_EQ(r, rpc::LineFramer::Result::Oversized);
      ++oversized;
    }
    EXPECT_LE(f.buffered(), 8u + 4u);
  }
  EXPECT_EQ(oversized, 1u);
  const std::string rest = "\nok\n";
  f.feed(rest.data(), rest.size());
  ASSERT_EQ(f.next(out), rpc::LineFramer::Result::Line);
  EXPECT_EQ(out, "ok");
}

TEST(Framing, OversizedCompletedLineInOneFeed) {
  rpc::LineFramer f(8);
  const std::string stream = std::string(20, 'y') + "\nafter\n";
  f.feed(stream.data(), stream.size());
  std::string out;
  ASSERT_EQ(f.next(out), rpc::LineFramer::Result::Oversized);
  ASSERT_EQ(f.next(out), rpc::LineFramer::Result::Line);
  EXPECT_EQ(out, "after");
}

// ---------------------------------------------------------------------------
// Server harness
// ---------------------------------------------------------------------------

/// Service + server on an ephemeral loopback port, loop on its own
/// thread, graceful stop on destruction.
struct TestServer {
  serve::Service service;
  rpc::Server server;
  std::thread loop;

  explicit TestServer(serve::ServiceOptions sopts = {},
                      rpc::ServerOptions ropts = {})
      : service(sopts), server(service, loopback(std::move(ropts))) {
    server.listen();
    loop = std::thread([this] { server.run(); });
  }
  ~TestServer() {
    server.request_stop();
    if (loop.joinable()) loop.join();
  }

  static rpc::ServerOptions loopback(rpc::ServerOptions o) {
    o.host = "127.0.0.1";
    o.port = 0;
    return o;
  }

  rpc::Client connect() { return rpc::Client("127.0.0.1", server.port()); }
};

TEST(RpcServer, PingRoundTrip) {
  TestServer ts;
  rpc::Client c = ts.connect();
  EXPECT_EQ(c.request(kPing), kPong);
}

TEST(RpcServer, SplitAndCoalescedTcpWrites) {
  TestServer ts;
  rpc::Client c = ts.connect();
  // One request delivered a byte at a time...
  const std::string one = std::string(kPing) + "\n";
  for (const char ch : one) {
    ASSERT_EQ(::send(c.fd(), &ch, 1, MSG_NOSIGNAL), 1);
  }
  EXPECT_EQ(c.recv_line(), kPong);
  // ...and three requests coalesced into a single write.
  const std::string burst =
      R"({"op":"ping","id":2})" "\n"
      R"({"op":"string_edit","id":3,"x":"kitten","y":"sitting"})" "\n"
      R"({"op":"ping","id":4})" "\n";
  ASSERT_EQ(::send(c.fd(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  EXPECT_EQ(c.recv_line(), R"({"id":2,"ok":true,"result":{"pong":true}})");
  EXPECT_EQ(c.recv_line(), R"({"id":3,"ok":true,"result":{"cost":3}})");
  EXPECT_EQ(c.recv_line(), R"({"id":4,"ok":true,"result":{"pong":true}})");
}

TEST(RpcServer, OversizedLineAnsweredAndConnectionSurvives) {
  rpc::ServerOptions ropts;
  ropts.max_line_bytes = 256;
  TestServer ts({}, ropts);
  rpc::Client c = ts.connect();
  const std::string big = "{\"op\":\"ping\",\"pad\":\"" +
                          std::string(1000, 'x') + "\"}";
  c.send_line(big);
  EXPECT_EQ(c.recv_line(),
            R"({"error":"bad_request: line exceeds 256 bytes","ok":false})");
  // The connection resynchronized at the newline and keeps serving.
  EXPECT_EQ(c.request(kPing), kPong);
}

TEST(RpcServer, PipeliningPreservesOrder) {
  TestServer ts;
  rpc::Client c = ts.connect();
  std::vector<std::string> reqs;
  for (int i = 1; i <= 50; ++i) {
    reqs.push_back(R"({"op":"ping","id":)" + std::to_string(i) + "}");
  }
  const std::vector<std::string> resps = c.pipeline(reqs);
  ASSERT_EQ(resps.size(), reqs.size());
  for (int i = 1; i <= 50; ++i) {
    EXPECT_EQ(resps[static_cast<std::size_t>(i - 1)],
              R"({"id":)" + std::to_string(i) +
                  R"(,"ok":true,"result":{"pong":true}})");
  }
}

TEST(RpcServer, ShutdownWriteDrainsThenEof) {
  TestServer ts;
  rpc::Client c = ts.connect();
  for (int i = 1; i <= 10; ++i) {
    c.send_line(R"({"op":"ping","id":)" + std::to_string(i) + "}");
  }
  c.shutdown_write();
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(c.recv_line(), R"({"id":)" + std::to_string(i) +
                                 R"(,"ok":true,"result":{"pong":true}})");
  }
  EXPECT_THROW(c.recv_line(), rpc::RpcError);
}

TEST(RpcServer, OverloadValveEchoesIdsItParsed) {
  // With no overload headroom every framed line meets the valve, so the
  // answers are deterministic: each echoes the id when it parsed, even
  // when a later envelope field is malformed.
  rpc::ServerOptions ropts;
  ropts.limits.overload_inflight = 0;
  TestServer ts({}, ropts);
  rpc::Client c = ts.connect();
  EXPECT_EQ(c.request(R"({"op":"ping","id":1})"),
            R"({"error":"overloaded","id":1,"ok":false})");
  EXPECT_EQ(c.request(R"({"op":7,"id":2})"),
            R"({"error":"overloaded","id":2,"ok":false})");
  EXPECT_EQ(c.request(R"({"op":"rowmin","id":3,"deadline_ms":-1})"),
            R"({"error":"overloaded","id":3,"ok":false})");
  EXPECT_EQ(c.request("not json"), R"({"error":"overloaded","ok":false})");
}

TEST(RpcServer, MaxConnsRejectsSurplus) {
  rpc::ServerOptions ropts;
  ropts.max_conns = 1;
  TestServer ts({}, ropts);
  rpc::Client first = ts.connect();
  // The request guarantees the first connection is fully accepted before
  // the second arrives.
  EXPECT_EQ(first.request(kPing), kPong);
  rpc::Client second = ts.connect();
  EXPECT_EQ(second.recv_line(),
            R"({"error":"overloaded: connection limit","ok":false})");
  EXPECT_THROW(second.recv_line(), rpc::RpcError);
  // The first connection is unaffected.
  EXPECT_EQ(first.request(kPing), kPong);
  EXPECT_GE(ts.server.stats().rejected_conns.load(), 1u);
}

TEST(RpcServer, IdleConnectionsAreClosed) {
  rpc::ServerOptions ropts;
  ropts.idle_timeout_ms = 100;
  TestServer ts({}, ropts);
  rpc::Client c = ts.connect();
  EXPECT_EQ(c.request(kPing), kPong);
  // No traffic, nothing in flight: the sweep closes us.
  EXPECT_THROW(c.recv_line(), rpc::RpcError);
  // The client can observe EOF a beat before the loop thread bumps the
  // counter; poll rather than racing it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ts.server.stats().idle_closed.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ts.server.stats().idle_closed.load(), 1u);
}

TEST(RpcServer, StatsSectionAndPrometheusExposition) {
  TestServer ts;
  ts.service.set_extra_stats("rpc",
                             [&] { return ts.server.stats_json(); });
  rpc::Client c = ts.connect();
  EXPECT_EQ(c.request(kPing), kPong);
  const std::string resp = c.request(R"({"op":"stats","id":2})");
  const serve::Json j = serve::Json::parse(resp);
  const serve::Json* rpc_sec = j.at("result").find("rpc");
  ASSERT_NE(rpc_sec, nullptr);
  EXPECT_GE(rpc_sec->at("accepted").as_int(), 1);
  EXPECT_GE(rpc_sec->at("lines_in").as_int(), 2);
  const std::string prom = obs::prometheus_text(j.at("result"));
  EXPECT_NE(prom.find("pmonge_rpc_connections_accepted_total"),
            std::string::npos);
  EXPECT_NE(prom.find("pmonge_rpc_lines_in_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden transcripts over TCP: bit-identity with stdin mode
// ---------------------------------------------------------------------------

std::filesystem::path golden_dir() {
  return std::filesystem::path(PMONGE_SOURCE_DIR) / "tests" / "golden";
}

/// Transcripts that exercise only the wire protocol (no !pause -- worker
/// pausing is an in-process test hook the TCP surface does not expose).
std::vector<std::string> replayable_goldens() {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(golden_dir())) {
    if (e.path().extension() != ".txt") continue;
    std::ifstream in(e.path());
    std::string line;
    bool replayable = true;
    while (std::getline(in, line)) {
      if (line == "!pause") {
        replayable = false;
        break;
      }
    }
    if (replayable) names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

serve::ServiceOptions transcript_options(const std::filesystem::path& path) {
  serve::ServiceOptions opts;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("!options", 0) != 0) continue;
    std::istringstream is(line.substr(8));
    std::string tok;
    while (is >> tok) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "queue") opts.queue_capacity = std::stoull(val);
      if (key == "batch") opts.batch_max = std::stoull(val);
      if (key == "cache") opts.cache_capacity = std::stoull(val);
      if (key == "shards") opts.cache_shards = std::stoull(val);
      if (key == "deadline") opts.default_deadline_ms = std::stoll(val);
      if (key == "coalesce") opts.coalesce = val == "on";
      if (key == "planner") opts.planner = val == "on";
    }
  }
  return opts;
}

class GoldenOverTcp : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenOverTcp, TranscriptMatchesOverSocket) {
  const std::filesystem::path path = golden_dir() / GetParam();
  TestServer ts(transcript_options(path));
  rpc::Client c = ts.connect();

  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line.rfind("!options", 0) == 0) {
      continue;
    }
    if (line.rfind("> ", 0) == 0) {
      c.send_line(line.substr(2));
    } else if (line.rfind("< ", 0) == 0 || line == "<") {
      const std::string want =
          line.size() > 2 ? line.substr(2) : std::string();
      EXPECT_EQ(c.recv_line(), want) << GetParam() << ":" << lineno;
    } else if (line.rfind("~ ", 0) == 0) {
      const std::string got = c.recv_line();
      EXPECT_TRUE(golden::full_match(got, line.substr(2)))
          << GetParam() << ":" << lineno << "\n  got: " << got;
    } else {
      FAIL() << GetParam() << ":" << lineno
             << ": directive the TCP replay cannot drive: " << line;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transcripts, GoldenOverTcp,
                         ::testing::ValuesIn(replayable_goldens()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Concurrency: N clients, byte-identical responses
// ---------------------------------------------------------------------------

TEST(RpcServer, ConcurrentClientsBitIdentical) {
  // 32 clients x 48 pipelined queries can all be in flight at once;
  // size the admission queue so none are (legitimately) rejected
  // `overloaded` -- this test pins answer bytes, not admission policy.
  serve::ServiceOptions sopts;
  sopts.queue_capacity = 8192;
  TestServer ts(sopts);
  // Shared operands registered once, before any concurrent client runs,
  // so every client sees the same array ids.
  {
    rpc::Client c = ts.connect();
    EXPECT_EQ(
        c.request(
            R"({"op":"register_random","id":1,"rows":64,"cols":48,"seed":7})"),
        R"({"id":1,"ok":true,"result":{"array":0}})");
    EXPECT_EQ(c.request(R"({"op":"register_random","id":2,"rows":24,)"
                        R"("cols":24,"seed":11,"kind":"staircase"})"),
              R"({"id":2,"ok":true,"result":{"array":1}})");
  }
  std::vector<std::string> reqs;
  for (int i = 0; i < 16; ++i) {
    reqs.push_back(R"({"op":"rowmin","id":)" + std::to_string(100 + i) +
                   R"(,"array":0,"row":)" + std::to_string(i % 64) + "}");
    reqs.push_back(R"({"op":"rowmax","id":)" + std::to_string(200 + i) +
                   R"(,"array":0,"row":)" + std::to_string(i % 64) + "}");
    reqs.push_back(R"({"op":"staircase_rowmin","id":)" +
                   std::to_string(300 + i) + R"(,"array":1,"row":)" +
                   std::to_string(i % 24) + "}");
  }
  // One sequential run pins the expected bytes; by the serve determinism
  // contract they cannot depend on concurrency, batching or cache state.
  std::vector<std::string> expected;
  {
    rpc::Client c = ts.connect();
    expected = c.pipeline(reqs);
  }
  constexpr int kClients = 32;
  // Connect (and ping, which forces the accept) every client BEFORE any
  // pipeline runs, so all 32 connections provably coexist -- the
  // high-water assertion below must not depend on thread start timing.
  std::vector<rpc::Client> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back("127.0.0.1", ts.server.port());
    EXPECT_EQ(clients.back().request(kPing), kPong);
  }
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] =
          clients[static_cast<std::size_t>(t)].pipeline(reqs);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], expected)
        << "client " << t << " diverged from the sequential bytes";
  }
  EXPECT_GE(ts.server.stats().conn_high_water.load(), 32u);
}

// ---------------------------------------------------------------------------
// Backpressure: a slow reader never grows server memory without bound
// ---------------------------------------------------------------------------

TEST(RpcServer, SlowReaderIsPausedWithBoundedMemoryThenRecovers) {
  rpc::ServerOptions ropts;
  ropts.limits.max_inflight = 4;
  ropts.limits.overload_inflight = 16;
  TestServer ts({}, ropts);
  rpc::Client c = ts.connect();
  ASSERT_EQ(
      c.request(
          R"({"op":"register_random","id":1,"rows":16,"cols":16,"seed":3})"),
      R"({"id":1,"ok":true,"result":{"array":0}})");

  // Hold the worker so query responses cannot complete, then pipeline
  // 100 queries without reading anything: the inflight valve MUST stop
  // the server from framing them all -- pending grows until max_inflight
  // pauses reads (anything framed past overload_inflight is rejected
  // `overloaded` instead of buffered).  Either way, server-side memory
  // for this connection stays bounded by the valves, not by how much a
  // misbehaving client sends.
  ts.service.pause();
  constexpr int kRequests = 100;
  for (int i = 1; i <= kRequests; ++i) {
    c.send_line(R"({"op":"rowmin","id":)" + std::to_string(i) +
                R"(,"array":0,"row":)" + std::to_string(i % 16) + "}");
  }
  // Wait until the valves engage: reads paused with the worker held.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (ts.server.stats().read_pauses.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(ts.server.stats().read_pauses.load(), 1u)
      << "inflight valve never paused reads";
  // The server cannot have buffered anywhere near the whole burst:
  // framed lines are capped by the overload valve plus rejections.
  EXPECT_LT(ts.server.stats().lines_in.load(), kRequests + 1u);

  // Release the worker and drain like a healthy client: every one of
  // the 100 requests gets exactly one response (ok or `overloaded`), in
  // order, and the connection keeps working afterwards.
  ts.service.resume();
  int ok = 0, overloaded = 0;
  for (int i = 1; i <= kRequests; ++i) {
    const std::string resp = c.recv_line();
    if (resp.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(resp.find("overloaded"), std::string::npos) << resp;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kRequests);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(c.request(kPing), kPong);
}

TEST(RpcServer, InflightValvePausesReadsButAnswersEverything) {
  // Query ops (not control ops) so responses need a worker round trip,
  // and 200 distinct rows so none is a cache hit the loop could answer
  // inline.  The worker is held while the burst arrives, so the pending
  // FIFO only grows and must trip the inflight valve (no race with the
  // worker draining it); after resume() every request still gets its
  // answer, in order.
  rpc::ServerOptions ropts;
  ropts.limits.max_inflight = 2;
  ropts.limits.overload_inflight = 512;
  TestServer ts({}, ropts);
  rpc::Client c = ts.connect();
  ASSERT_EQ(
      c.request(
          R"({"op":"register_random","id":1,"rows":256,"cols":16,"seed":3})"),
      R"({"id":1,"ok":true,"result":{"array":0}})");
  ts.service.pause();
  constexpr int kRequests = 200;
  for (int i = 1; i <= kRequests; ++i) {
    c.send_line(R"({"op":"rowmin","id":)" + std::to_string(i) +
                R"(,"array":0,"row":)" + std::to_string(i) + "}");
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (ts.server.stats().read_pauses.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(ts.server.stats().read_pauses.load(), 1u)
      << "inflight valve never paused reads";
  ts.service.resume();
  for (int i = 1; i <= kRequests; ++i) {
    const std::string resp = c.recv_line();
    EXPECT_NE(resp.find(R"({"id":)" + std::to_string(i) + R"(,"ok":true)"),
              std::string::npos)
        << resp;
  }
  EXPECT_EQ(c.request(kPing), kPong);
}

// ---------------------------------------------------------------------------
// Inline grants: a loop that stays busy hands lines to the worker
// ---------------------------------------------------------------------------

TEST(RpcServer, BusyLoopSpendsItsIdleBankThenQueues) {
  // One send of far more cheap misses than the loop can answer within its
  // idle bank (kIdleBankUs of busy time), so the loop never waits for
  // input.  Each 64 KiB read frames about 1,500 lines priced at 0.02 us,
  // well within one inline grant, so only the bank makes the loop hand
  // lines to the worker.
  constexpr std::size_t kLines = 8192;
  serve::ServiceOptions sopts;
  sopts.cache_capacity = 0;  // every line a miss
  sopts.queue_capacity = kLines;  // refuse nothing, here or at the valve
  rpc::ServerOptions ropts;
  ropts.limits.overload_inflight = kLines;
  TestServer ts(sopts, ropts);
  rpc::Client c = ts.connect();
  const std::string reg =
      R"({"op":"register_random","id":1,"rows":16,"cols":16,"seed":5})";
  ASSERT_EQ(c.request(reg), R"({"id":1,"ok":true,"result":{"array":0}})");

  serve::Service ref(sopts);  // the in-process reference
  ASSERT_EQ(ref.request(reg), R"({"id":1,"ok":true,"result":{"array":0}})");
  std::string burst;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kLines; ++i) {
    const std::string line = R"({"op":"rowmin","id":)" + std::to_string(i) +
                             R"(,"array":0,"row":)" +
                             std::to_string(i % 16) + "}";
    expected.push_back(ref.request(line));
    burst += line;
    burst += '\n';
  }
  ASSERT_GE(burst.size(), std::size_t{200} << 10);

  // Answers are read on a second thread while the burst goes out, so
  // neither side's socket buffer can stall the other.
  const int fd = c.fd();
  std::vector<std::string> got;
  std::thread reader([&] {
    try {
      while (got.size() < kLines) got.push_back(c.recv_line());
    } catch (const rpc::RpcError&) {  // short; the comparison below fails
    }
  });
  for (std::size_t off = 0; off < burst.size();) {
    const ssize_t k =
        ::send(fd, burst.data() + off, burst.size() - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
    } else if (errno != EINTR) {
      break;
    }
  }
  reader.join();
  ASSERT_EQ(got.size(), kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    ASSERT_EQ(got[i], expected[i]) << "line " << i;
  }
  const serve::Json stats =
      serve::Json::parse(ts.service.request(R"({"op":"stats"})"))
          .at("result");
  EXPECT_GT(stats.at("queue").at("admitted").as_int(), 0)
      << "the loop answered every line itself: inline "
      << stats.at("queue").at("inline").as_int();
}

// ---------------------------------------------------------------------------
// Graceful drain under load
// ---------------------------------------------------------------------------

TEST(RpcServer, GracefulDrainFlushesInFlight) {
  auto ts = std::make_unique<TestServer>();
  rpc::Client c = ts->connect();
  for (int i = 1; i <= 100; ++i) {
    c.send_line(R"({"op":"ping","id":)" + std::to_string(i) + "}");
  }
  ts->server.request_stop();
  // Every response the drain delivers must be the next expected one --
  // an in-order prefix of the submitted requests, then EOF.
  int next_id = 1;
  try {
    while (true) {
      const std::string resp = c.recv_line();
      EXPECT_EQ(resp, R"({"id":)" + std::to_string(next_id) +
                          R"(,"ok":true,"result":{"pong":true}})");
      ++next_id;
    }
  } catch (const rpc::RpcError&) {
    // EOF: the drain finished.
  }
  EXPECT_GE(next_id, 1);
  ts.reset();  // run() must have returned; the join cannot hang
}

// ---------------------------------------------------------------------------
// Chaos: conn_drop / read_stall armed
// ---------------------------------------------------------------------------

struct FaultGuard {
  ~FaultGuard() { fault::disarm(); }
};

TEST(RpcChaos, SurvivesConnDropAndReadStall) {
  FaultGuard guard;
  TestServer ts;
  {
    rpc::Client c = ts.connect();
    ASSERT_EQ(
        c.request(
            R"({"op":"register_random","id":1,"rows":32,"cols":32,"seed":5})"),
        R"({"id":1,"ok":true,"result":{"array":0}})");
  }
  fault::arm(/*seed=*/7, /*rate_bp=*/300,
             (1u << static_cast<std::uint32_t>(fault::Site::RpcConnDrop)) |
                 (1u << static_cast<std::uint32_t>(fault::Site::RpcReadStall)));

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 150;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rpc::Client c("127.0.0.1", ts.server.port());
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string req =
            R"({"op":"rowmin","id":)" + std::to_string(i) +
            R"(,"array":0,"row":)" + std::to_string((t * 7 + i) % 32) + "}";
        try {
          const std::string resp = c.request(req);
          EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
          ok.fetch_add(1);
        } catch (const rpc::RpcError&) {
          // Injected drop: the answer died with the connection.
          // Reconnect and continue -- the server must still be there.
          reconnects.fetch_add(1);
          c.connect("127.0.0.1", ts.server.port());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  fault::disarm();

  // At 3% drop odds over 1200 request/response cycles, drops all landing
  // elsewhere would be astronomically unlucky -- but the gate is only
  // that progress continued and the server survived.
  EXPECT_GT(ok.load(), 0u);
  rpc::Client c = ts.connect();
  EXPECT_EQ(c.request(kPing), kPong);
  EXPECT_EQ(ts.server.stats().dropped_conns.load(),
            fault::injected(fault::Site::RpcConnDrop));
}

}  // namespace
}  // namespace pmonge
