// Wire protocol of the query service: newline-delimited JSON objects on
// both directions (one request per line in, one response per line out).
//
// Request:  {"op": "<name>", ...op fields...,
//            "id": <int, optional, echoed>,
//            "deadline_ms": <int, optional, relative admission deadline>}
// Response: {"id": <echoed if given>, "ok": true,  "result": {...}}
//         | {"id": <echoed if given>, "ok": false, "error": "<reason>"}
//
// Ops split into two planes, and kOpTable below is the one list of both:
//   * control plane -- handled synchronously at submission, never
//     queued, so registration is always visible to queries admitted
//     after its response;
//   * query plane -- admitted through the bounded queue, coalesced by
//     the batcher, memoized by signature.  explain wraps another query
//     ({"op":"explain","query":{...}}) and reports the planner's chosen
//     plan plus predicted vs actual cost; like stats it is observability
//     output and is never cached.
// An op's name is parsed once (parse_request, and the codec on the fast
// path); everything downstream switches on the Op enum or reads its
// OpSpec row.
//
// The *signature* of a query is the canonical dump of its body with the
// envelope fields ("id", "deadline_ms", "trace_id") removed: two requests
// asking the same question have equal signatures regardless of id, field
// order or whitespace, which is what the result cache keys on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "plan/cost_model.hpp"
#include "serve/json.hpp"

namespace pmonge::serve {

inline constexpr std::int64_t kNoId = std::numeric_limits<std::int64_t>::min();

/// Every op the service answers, in kOpTable order.
enum class Op : std::uint8_t {
  // Query plane.
  RowMin, RowMax, StaircaseRowMin, StaircaseRowMax, TubeMax, TubeMin,
  SubmatrixMin, SubmatrixMax, StringEdit, LargestRect, EmptyRect,
  PolygonNeighbors, Explain,
  // Control plane.
  RegisterDense, RegisterStaircase, RegisterRandom, Unregister, Stats, Ping,
  Trace, IndexBuild, IndexDrop, IndexStats,
  // Any other name: answered unknown_op, counted in the "_other" slot.
  Other,
};
inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::Other) + 1;

struct OpSpec {
  Op op;
  std::string_view name;   // wire name; also the stats endpoint key
  bool query;              // query plane: queued, batched, cached
  plan::OpClass op_class;  // cost-model class (batched query ops)
  // Body fields naming the registered arrays the op reads, resolved once
  // per batch group; unused slots are null.
  std::array<const char*, 2> operands;
  bool maxima;             // search direction of a min/max pair
};

constexpr OpSpec query_op(Op op, std::string_view name, plan::OpClass cls,
                          std::array<const char*, 2> operands = {},
                          bool maxima = false) {
  return {op, name, true, cls, operands, maxima};
}
constexpr OpSpec control_op(Op op, std::string_view name) {
  return {op, name, false, plan::OpClass::GeometricApp, {}, false};
}

/// The op table.  Adding an op: an Op value, its row here, and its
/// handler case (Batcher::dispatch_group_once or Service::handle_control).
inline constexpr std::array<OpSpec, kOpCount> kOpTable = {{
    query_op(Op::RowMin, "rowmin", plan::OpClass::RowSearch, {"array"}),
    query_op(Op::RowMax, "rowmax", plan::OpClass::RowSearch, {"array"}, true),
    query_op(Op::StaircaseRowMin, "staircase_rowmin",
             plan::OpClass::RowSearch, {"array"}),
    query_op(Op::StaircaseRowMax, "staircase_rowmax",
             plan::OpClass::RowSearch, {"array"}, true),
    query_op(Op::TubeMax, "tubemax", plan::OpClass::TubeSearch, {"d", "e"},
             true),
    query_op(Op::TubeMin, "tubemin", plan::OpClass::TubeSearch, {"d", "e"}),
    query_op(Op::SubmatrixMin, "submatrix_min",
             plan::OpClass::SubmatrixSearch, {"array"}),
    query_op(Op::SubmatrixMax, "submatrix_max",
             plan::OpClass::SubmatrixSearch, {"array"}, true),
    query_op(Op::StringEdit, "string_edit", plan::OpClass::EditDistance),
    query_op(Op::LargestRect, "largest_rect", plan::OpClass::GeometricApp),
    query_op(Op::EmptyRect, "empty_rect", plan::OpClass::GeometricApp),
    query_op(Op::PolygonNeighbors, "polygon_neighbors",
             plan::OpClass::GeometricApp),
    // Never grouped: the batcher answers it from its inner query's plan.
    query_op(Op::Explain, "explain", plan::OpClass::GeometricApp),
    control_op(Op::RegisterDense, "register_dense"),
    control_op(Op::RegisterStaircase, "register_staircase"),
    control_op(Op::RegisterRandom, "register_random"),
    control_op(Op::Unregister, "unregister"),
    control_op(Op::Stats, "stats"),
    control_op(Op::Ping, "ping"),
    control_op(Op::Trace, "trace"),
    control_op(Op::IndexBuild, "index_build"),
    control_op(Op::IndexDrop, "index_drop"),
    control_op(Op::IndexStats, "index_stats"),
    control_op(Op::Other, "_other"),
}};

constexpr bool op_table_in_enum_order() {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (kOpTable[i].op != static_cast<Op>(i)) return false;
  }
  return true;
}
static_assert(op_table_in_enum_order(), "kOpTable rows must follow Op order");

inline const OpSpec& op_spec(Op op) {
  return kOpTable[static_cast<std::size_t>(op)];
}

/// The op a wire name names; Op::Other when it names none.
inline Op parse_op(std::string_view name) {
  for (const OpSpec& s : kOpTable) {
    if (s.name == name) return s.op;
  }
  return Op::Other;
}

struct Request {
  std::int64_t id = kNoId;
  Op op = Op::Other;
  Json body;              // the full parsed request object
  std::string signature;  // canonical cache key (query ops)
  std::int64_t deadline_ms = -1;  // relative; -1 = none given
  // Observability envelope field (like "id": stripped from the
  // signature, never part of the cached question).  Client-supplied via
  // "trace_id", or minted at admission when tracing is on; query ops
  // carry it through the batcher into exec spans.  Never echoed in
  // responses, so response bytes stay identical tracing on or off.
  std::uint64_t trace_id = 0;
};

/// Parse one request line; throws JsonError on malformed input (bad
/// JSON, missing or non-string op, a bad deadline_ms or trace_id).  An
/// unknown op name parses to Op::Other (the body keeps the name).
/// Computes the signature for query ops.
Request parse_request(const std::string& line);

/// parse_request into a fresh `req`.  The id parses first, so when a
/// later envelope field throws, req.id already holds it and the error
/// answer can echo it (it stays kNoId when the line is not an object or
/// its id is not an integer).
void parse_request_into(const std::string& line, Request& req);

/// Serialize a success / error response (canonical bytes).
std::string make_ok_response(std::int64_t id, Json result);
std::string make_error_response(std::int64_t id, const std::string& error);

/// Append-into-buffer forms of the response serializers: same canonical
/// bytes, no per-call std::string.  `result_canonical` in the _raw form
/// must already be canonical JSON (e.g. cached response bytes), which is
/// spliced in verbatim.
void append_ok_response_raw(std::int64_t id, std::string_view result_canonical,
                            std::string& out);
void append_error_response(std::int64_t id, std::string_view error,
                           std::string& out);

}  // namespace pmonge::serve
