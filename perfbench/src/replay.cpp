// In-process replay of a workload's request lines through the serve
// layers that have no server span: the streaming codec, the result
// cache's hit probe, the protocol parser and serializer, and the whole
// cached-hit fast path.  Calls are timed in blocks of 64 and each layer
// reports the median block's cost per call.
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/cache.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using pmonge::serve::Json;

namespace {

constexpr std::size_t kBlock = 64;

template <class Body>
double per_call_ns(std::size_t n, Body&& body) {
  std::vector<double> per;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t e = std::min(n, b + kBlock);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = b; i < e; ++i) body(i);
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(e - b));
  }
  return median(std::move(per));
}

}  // namespace

ReplayTimings replay_layers(const std::vector<std::string>& lines,
                            const std::vector<std::string>& responses,
                            pmonge::serve::Service& svc, SpanLog* spans) {
  ReplayTimings r;
  const std::size_t n = lines.size();
  std::uint64_t sink = 0;

  pmonge::serve::RequestCodec codec;
  pmonge::serve::FastQuery q;
  std::vector<std::string> sig(n);
  std::vector<std::uint64_t> hash(n, 0);
  for (std::size_t i = 0; i < n; ++i) {  // also warms the codec's buffers
    if (codec.canonicalize_query(lines[i], q)) {
      sig[i] = q.signature;
      hash[i] = q.hash;
    }
  }
  r.canonicalize_ns = per_call_ns(n, [&](std::size_t i) {
    if (codec.canonicalize_query(lines[i], q)) sink += q.hash;
  });

  r.parse_ns = per_call_ns(n, [&](std::size_t i) {
    sink += pmonge::serve::parse_request(lines[i]).signature.size();
  });

  std::vector<Json> results(n);
  std::vector<std::string> payloads(n);
  std::vector<std::int64_t> ids(n, pmonge::serve::kNoId);
  for (std::size_t i = 0; i < n; ++i) {
    const Json doc = Json::parse(responses[i]);
    if (const Json* id = doc.find("id")) ids[i] = id->as_int();
    if (const Json* res = doc.find("result")) results[i] = *res;
    payloads[i] = results[i].dump();
  }
  r.respond_ns = per_call_ns(n, [&](std::size_t i) {
    sink += pmonge::serve::make_ok_response(ids[i], std::move(results[i])).size();
  });

  // A cache filled with the stream's results in stream order holds what
  // the server's would at the end of the run; probing it in order gives
  // the workload's own hit/miss mix.
  pmonge::serve::ShardedLruCache cache(4096, 8);
  for (std::size_t i = 0; i < n; ++i) {
    if (!sig[i].empty()) cache.put(sig[i], payloads[i]);
  }
  std::string out;
  r.get_hit_ns = per_call_ns(n, [&](std::size_t i) {
    out.clear();
    sink += cache.get_hit(sig[i], hash[i], out) ? 1 : 0;
  });

  r.serve_fast_ns = per_call_ns(n, [&](std::size_t i) {
    out.clear();
    sink += svc.try_serve_fast(lines[i], out) ? 1 : 0;
  });
  if (spans != nullptr) {
    r.traced_serve_fast_ns = per_call_ns(n, [&](std::size_t i) {
      const std::size_t h = spans->open("serve.try_serve_fast", -1, i + 1);
      out.clear();
      sink += svc.try_serve_fast(lines[i], out) ? 1 : 0;
      spans->close(h);
    });
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return r;
}

}  // namespace perfbench
