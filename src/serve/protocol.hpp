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
// envelope fields ("id", "deadline_ms", "trace_id") removed, numbers in
// the signature form of append_signature_number: two requests asking
// the same question have equal signatures regardless of id, field order
// or whitespace, which is what the result cache keys on.  It is also the
// one form query handlers read their fields from (Request::find/at), so
// a request built by the streaming codec (serve/codec.hpp) and one built
// from a DOM reach the handlers identically.
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

/// One top-level field of a query, read from the request's signature:
/// `raw` is the value's canonical bytes, empty when the field is absent.
/// The accessors throw the JsonError texts the DOM's would, so an error
/// answer does not depend on how the request was built.
class Field {
 public:
  Field() = default;
  explicit Field(std::string_view raw) : raw_(raw) {}

  bool present() const { return !raw_.empty(); }
  /// An integer literal: what the DOM parses as Json::Type::Int.
  bool is_int() const;
  std::int64_t as_int() const;  // else `bad_request: expected integer`
  /// The unescaped string: a view of the signature when it holds no
  /// escape, else of `scratch`.  Else `bad_request: expected string`.
  std::string_view as_string(std::string& scratch) const;
  /// A nested value (an array of points, explain's inner query), parsed
  /// on demand from its canonical bytes.
  Json parse() const { return Json::parse(raw_); }
  /// The number of elements of an array value (raw() starts with '['),
  /// counted without parsing them.
  std::size_t array_size() const;
  std::string_view raw() const { return raw_; }

 private:
  std::string_view raw_;
};

struct Request {
  std::int64_t id = kNoId;
  Op op = Op::Other;
  Json body;              // the parsed request object: control ops only
  std::string signature;  // canonical cache key (query ops)
  std::uint64_t hash = 0;  // cache_checksum(signature)
  std::int64_t deadline_ms = -1;  // relative; -1 = none given
  // Observability envelope field (like "id": stripped from the
  // signature, never part of the cached question).  Client-supplied via
  // "trace_id", or minted at admission when tracing is on; query ops
  // carry it through the batcher into exec spans.  Never echoed in
  // responses, so response bytes stay identical tracing on or off.
  std::uint64_t trace_id = 0;

  /// Top-level field `key` of a query, read from the signature.
  Field find(std::string_view key) const;
  /// find(), throwing `bad_request: missing field "key"` when absent.
  Field at(std::string_view key) const;

  /// Index the signature's top-level fields, so each find() compares a
  /// few keys instead of scanning the signature; whoever sets
  /// `signature` calls it (an unindexed request's find() scans).
  void index_fields();

 private:
  struct FieldSpan {
    std::uint32_t key, key_len, value, value_len;  // offsets in signature
  };
  static constexpr std::uint8_t kUnindexed = 0xff;
  template <class Visit>
  static bool scan_members(std::string_view s, Visit&& visit);
  std::array<FieldSpan, 12> fields_{};
  std::uint8_t field_count_ = kUnindexed;
};

/// Parse one request line with the DOM; throws JsonError on malformed
/// input (bad JSON, missing or non-string op, a bad deadline_ms or
/// trace_id).  An unknown op name parses to Op::Other (the body keeps
/// the name).  A query op gets its signature and hash, and no body: its
/// handler reads the signature, exactly as for a codec-built request.
Request parse_request(const std::string& line);

/// parse_request into a fresh `req`.  The id parses first, so when a
/// later envelope field throws, req.id already holds it and the error
/// answer can echo it (it stays kNoId when the line is not an object or
/// its id is not an integer).
void parse_request_into(std::string_view line, Request& req);

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
