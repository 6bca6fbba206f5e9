// Streaming request canonicalizer: the front of every query line.
//
// Service::submit_line runs each line through this codec once.  One
// pass over the line emits its signature -- the canonical body (sorted
// keys, no whitespace, canonical string escapes, numbers in the
// signature form of append_signature_number) minus the envelope fields
// -- into reusable per-thread buffers, extracts op, id, deadline_ms and
// trace_id, and hashes the signature once.  That signature and hash then
// carry the request through the cache probe, the handler (which reads
// its fields from the signature, serve/protocol.hpp) and the cache
// insert: a query line the codec accepts never builds a Json DOM.
//
// Correctness contract: for every line the codec ACCEPTS, the signature
// is byte-identical to `parse_request(line).signature`, and op, id,
// deadline_ms and trace_id match the DOM path's.  For every line it is
// unsure about -- malformed input (the DOM path's error text embeds
// byte offsets), escaped object keys (escaped-form ordering diverges
// from the parse tree's unescaped-key ordering), an envelope value the
// DOM path answers with an error (a negative deadline_ms, a trace_id
// <= 0, a non-integer), nesting deeper than the guard -- it REFUSES, and
// the caller builds the request with the DOM path instead.  Refusal is
// always correct; acceptance is what tests/test_codec.cpp fuzzes against
// the DOM path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace pmonge::serve {

/// A canonicalized request line.  The signature points into the codec's
/// reusable buffers: valid until the next canonicalize_query() call on
/// the same codec, so a request that outlives the call copies it.
struct FastQuery {
  std::string_view signature;  // canonical body minus envelope fields
  Op op = Op::Other;           // parsed from the unescaped op name
  std::int64_t id = kNoId;     // echoed id (kNoId when absent)
  std::uint64_t hash = 0;      // cache_checksum(signature), the cache key hash
  std::int64_t deadline_ms = -1;  // -1 when absent
  std::uint64_t trace_id = 0;     // 0 when absent
};

class RequestCodec {
 public:
  /// One-pass canonicalization of a request line.  True: `out` is filled
  /// and the line is a well-formed request.  False: build it with the
  /// DOM path (which may still answer it fine -- refusal is
  /// conservative, see header comment).
  bool canonicalize_query(std::string_view line, FastQuery& out);

 private:
  enum class Kind { Other, Int, Str };

  bool canon_value();
  bool canon_object();
  bool canon_array();
  bool canon_string();
  bool canon_number();
  bool parse_int_value(std::int64_t& v);
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

  // Last value kind, for top-level op extraction.
  Kind last_kind_ = Kind::Other;
  bool last_str_escaped_ = false;
  std::string_view last_str_raw_;  // source bytes of the last string value

  // Reusable buffers (capacity persists across requests; the steady
  // state allocates nothing).
  std::string canon_;             // the canonical signature being emitted
  std::string strbuf_;            // number tokens / unescaped strings
  std::string reorder_;           // object-member reorder scratch
  std::vector<Member> members_;   // flat per-depth member stack
};

/// The calling thread's codec (created on first use).
RequestCodec& thread_codec();

}  // namespace pmonge::serve
