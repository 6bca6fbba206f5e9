// Streaming request canonicalizer: the zero-allocation front half of the
// serve fast path.
//
// The slow path turns a request line into its cache signature by parsing
// a DOM (`Json::parse`), copying the body object, erasing the transport
// fields and re-dumping -- a dozen-plus heap allocations per request.
// For the cached-hit case all of that work exists only to recover the
// canonical bytes the cache is keyed on, so this codec computes those
// bytes directly: one pass over the line, emitting the canonical form
// (sorted keys, no whitespace, canonical numbers and string escapes)
// into reusable per-thread buffers, skipping the transport fields as it
// goes.  A cache probe on the result needs no Json value, no Request,
// and no per-request allocation once the thread's buffers are warm.
//
// Correctness contract: for every line the codec ACCEPTS, the emitted
// signature is byte-identical to `parse_request(line).signature`, and the
// extracted op/id match the slow path's.  For every line it is unsure
// about -- malformed input (the slow path's error text embeds byte
// offsets), escaped object keys (escaped-form ordering diverges from the
// parse tree's unescaped-key ordering), transport fields with their own
// admission semantics (`deadline_ms`, `trace_id`), nesting deeper than
// the guard -- it REFUSES, and the caller falls back to the slow path.
// Refusal is always correct; acceptance is what tests/test_codec.cpp
// fuzzes against the slow path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace pmonge::serve {

/// A successfully canonicalized query request.  The signature points into
/// the codec's reusable buffers: valid until the next canonicalize_query()
/// call on the same codec.
struct FastQuery {
  std::string_view signature;  // canonical body minus transport fields
  Op op = Op::Other;           // parsed from the unescaped op name
  std::int64_t id = kNoId;     // echoed id (kNoId when absent)
  std::uint64_t hash = 0;      // FNV-1a of signature (the cache key hash)
};

class RequestCodec {
 public:
  /// One-pass canonicalization of a request line.  True: `out` is filled
  /// and the line is a well-formed query request with no deadline_ms /
  /// trace_id.  False: fall back to the slow path (which may still
  /// answer it fine -- refusal is conservative, see header comment).
  bool canonicalize_query(std::string_view line, FastQuery& out);

  /// Reusable response-assembly buffer for this codec's thread.
  std::string& response_buffer() { return respbuf_; }

 private:
  enum class Kind { Other, Int, Str };

  bool canon_value();
  bool canon_object();
  bool canon_array();
  bool canon_string();
  bool canon_number();
  bool parse_id_value();
  void skip_ws();
  void rebuild_object(std::size_t base, std::size_t body_start);

  struct Member {
    std::uint32_t key_off, key_len;    // key bytes within canon_
    std::uint32_t pair_off, pair_len;  // "key":value bytes within canon_
  };

  std::string_view key_of(const Member& m) const {
    return std::string_view(canon_).substr(m.key_off, m.key_len);
  }

  // Parse state (per canonicalize_query call).
  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  // Last value kind, for top-level op/id extraction.
  Kind last_kind_ = Kind::Other;
  bool last_str_escaped_ = false;
  std::string_view last_str_raw_;  // source bytes of the last string value
  std::int64_t id_value_ = kNoId;

  // Reusable buffers (capacity persists across requests; the steady
  // state allocates nothing).
  std::string canon_;             // the canonical signature being emitted
  std::string strbuf_;            // number tokens / unescaped strings
  std::string reorder_;           // object-member reorder scratch
  std::string respbuf_;           // response assembly (service fast path)
  std::vector<Member> members_;   // flat per-depth member stack
};

/// The calling thread's codec (created on first use).
RequestCodec& thread_codec();

}  // namespace pmonge::serve
