#include "serve/protocol.hpp"

#include <charconv>
#include <cstring>

#include "serve/cache.hpp"
#include "support/fmt.hpp"

namespace pmonge::serve {

namespace {

// Signatures are canonical JSON: no whitespace, and string escapes only
// as append_json_string writes them.  These scanners rely on both.

/// Past the closing quote of the string that opens at `pos`.
std::size_t skip_string(std::string_view s, std::size_t pos) {
  for (++pos; pos < s.size(); ++pos) {
    if (s[pos] == '\\') {
      ++pos;
    } else if (s[pos] == '"') {
      return pos + 1;
    }
  }
  return pos;
}

/// Past the value that starts at `pos`.
std::size_t skip_value(std::string_view s, std::size_t pos) {
  int depth = 0;
  for (; pos < s.size(); ++pos) {
    const char c = s[pos];
    if (c == '"') {
      pos = skip_string(s, pos) - 1;  // the closing quote
      if (depth == 0) return pos + 1;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (depth == 0) return pos;  // the enclosing object's end
      if (--depth == 0) return pos + 1;
    } else if (c == ',' && depth == 0) {
      return pos;
    }
  }
  return pos;
}

}  // namespace

/// Calls `visit` on each top-level member of the signature `s`, in order,
/// until it returns true; false when it never did.
template <class Visit>
bool Request::scan_members(std::string_view s, Visit&& visit) {
  std::size_t pos = 1;  // past '{'
  while (pos < s.size() && s[pos] == '"') {
    const std::size_t key_end = skip_string(s, pos);
    const std::size_t value = key_end + 1;  // past ':'
    const std::size_t value_end = skip_value(s, value);
    if (visit(FieldSpan{static_cast<std::uint32_t>(pos + 1),
                        static_cast<std::uint32_t>(key_end - pos - 2),
                        static_cast<std::uint32_t>(value),
                        static_cast<std::uint32_t>(value_end - value)})) {
      return true;
    }
    pos = value_end + 1;  // past ','
  }
  return false;
}

namespace {

/// An integer literal's value: what append_int wrote (so it fits).
bool parse_int(std::string_view raw, std::int64_t& v) {
  const bool neg = !raw.empty() && raw[0] == '-';
  std::size_t i = neg ? 1 : 0;
  if (i == raw.size()) return false;
  std::uint64_t mag = 0;
  for (; i < raw.size(); ++i) {
    const unsigned d = static_cast<unsigned>(raw[i] - '0');
    if (d > 9) return false;
    mag = mag * 10 + d;
  }
  v = static_cast<std::int64_t>(neg ? 0 - mag : mag);
  return true;
}

}  // namespace

bool Field::is_int() const {
  std::int64_t v;
  return parse_int(raw_, v);
}

std::int64_t Field::as_int() const {
  std::int64_t v;
  if (!parse_int(raw_, v)) throw JsonError("bad_request: expected integer");
  return v;
}

std::string_view Field::as_string(std::string& scratch) const {
  if (raw_.size() < 2 || raw_[0] != '"') {
    throw JsonError("bad_request: expected string");
  }
  const std::string_view inner = raw_.substr(1, raw_.size() - 2);
  if (inner.find('\\') == std::string_view::npos) return inner;
  scratch.clear();
  for (std::size_t i = 0; i < inner.size(); ++i) {
    if (inner[i] != '\\') {
      scratch.push_back(inner[i]);
      continue;
    }
    switch (const char e = inner[++i]) {
      case 'b': scratch.push_back('\b'); break;
      case 'f': scratch.push_back('\f'); break;
      case 'n': scratch.push_back('\n'); break;
      case 'r': scratch.push_back('\r'); break;
      case 't': scratch.push_back('\t'); break;
      case 'u': {  // \u00XX: the escaper's form for other control bytes
        unsigned v = 0;
        std::from_chars(inner.data() + i + 1, inner.data() + i + 5, v, 16);
        scratch.push_back(static_cast<char>(v));
        i += 4;
        break;
      }
      default: scratch.push_back(e);  // '"' or '\\'
    }
  }
  return scratch;
}

std::size_t Field::array_size() const {
  std::size_t n = 0;
  for (std::size_t pos = 1; pos < raw_.size() && raw_[pos] != ']';
       pos = skip_value(raw_, pos) + 1) {  // past ',' or the closing ']'
    ++n;
  }
  return n;
}

void Request::index_fields() {
  std::uint8_t n = 0;
  const bool overflow = scan_members(signature, [&](const FieldSpan& f) {
    if (n == fields_.size()) return true;  // too many to index
    fields_[n++] = f;
    return false;
  });
  field_count_ = overflow ? kUnindexed : n;  // unindexed: find() scans
}

Field Request::find(std::string_view key) const {
  const char* s = signature.data();
  Field out;
  const auto match = [&](const FieldSpan& f) {
    if (f.key_len != key.size() ||
        std::memcmp(s + f.key, key.data(), key.size()) != 0) {
      return false;
    }
    out = Field(std::string_view(s + f.value, f.value_len));
    return true;
  };
  if (field_count_ == kUnindexed) {
    scan_members(signature, match);
  } else {
    for (std::uint8_t i = 0; i < field_count_ && !match(fields_[i]); ++i) {
    }
  }
  return out;
}

Field Request::at(std::string_view key) const {
  const Field f = find(key);
  if (!f.present()) {
    throw JsonError("bad_request: missing field \"" + std::string(key) + "\"");
  }
  return f;
}

Request parse_request(const std::string& line) {
  Request req;
  parse_request_into(line, req);
  return req;
}

void parse_request_into(std::string_view line, Request& req) {
  req.body = Json::parse(line);
  if (req.body.type() != Json::Type::Object) {
    throw JsonError("bad_request: request must be a JSON object");
  }
  if (const Json* id = req.body.find("id")) req.id = id->as_int();
  req.op = parse_op(req.body.at("op").as_string());
  if (const Json* dl = req.body.find("deadline_ms")) {
    req.deadline_ms = dl->as_int();
    if (req.deadline_ms < 0) {
      throw JsonError("bad_request: deadline_ms must be >= 0");
    }
  }
  if (const Json* tid = req.body.find("trace_id")) {
    const std::int64_t t = tid->as_int();
    if (t <= 0) throw JsonError("bad_request: trace_id must be positive");
    req.trace_id = static_cast<std::uint64_t>(t);
  }
  if (op_spec(req.op).query) {
    // Canonical body with envelope fields skipped, emitted straight from
    // the sorted parse tree -- no copied-and-erased Obj per request.
    req.signature.reserve(line.size());
    req.signature.push_back('{');
    bool first = true;
    for (const auto& [k, v] : req.body.obj()) {
      if (k == "id" || k == "deadline_ms" || k == "trace_id") continue;
      if (!first) req.signature.push_back(',');
      first = false;
      append_json_string(k, req.signature);
      req.signature.push_back(':');
      v.dump_signature_to(req.signature);
    }
    req.signature.push_back('}');
    req.hash = cache_checksum(req.signature);
    req.index_fields();
    req.body = Json();  // handlers read the signature
  }
}

// Handwritten response assembly relies on the sorted-key canonical order:
// "error" < "id" < "ok" < "result", so emitting fields in that fixed
// order matches what dumping a std::map-backed Obj produces.

void append_ok_response_raw(std::int64_t id, std::string_view result_canonical,
                            std::string& out) {
  if (id != kNoId) {
    out += "{\"id\":";
    support::append_int(out, id);
    out += ",\"ok\":true,\"result\":";
  } else {
    out += "{\"ok\":true,\"result\":";
  }
  out += result_canonical;
  out.push_back('}');
}

void append_error_response(std::int64_t id, std::string_view error,
                           std::string& out) {
  out += "{\"error\":";
  append_json_string(error, out);
  if (id != kNoId) {
    out += ",\"id\":";
    support::append_int(out, id);
  }
  out += ",\"ok\":false}";
}

std::string make_ok_response(std::int64_t id, Json result) {
  std::string out;
  std::string body;
  result.dump_to(body);
  out.reserve(body.size() + 40);
  append_ok_response_raw(id, body, out);
  return out;
}

std::string make_error_response(std::int64_t id, const std::string& error) {
  std::string out;
  out.reserve(error.size() + 40);
  append_error_response(id, error, out);
  return out;
}

}  // namespace pmonge::serve
