#include "serve/codec.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "support/fmt.hpp"

namespace pmonge::serve {

namespace {

// Nesting beyond this refuses to the slow path; real query bodies are
// two or three levels deep.
constexpr int kMaxDepth = 64;

bool is_dig(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void RequestCodec::skip_ws() {
  while (pos_ < s_.size() &&
         (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
          s_[pos_] == '\r')) {
    ++pos_;
  }
}

// Unescape + re-escape a string value exactly as parse-then-dump would:
// the source escapes may be non-canonical ("A", "\/"), so a value with
// an escape is first unescaped into strbuf_ (mirroring
// Parser::parse_string, including surrogate pairs) and then emitted
// through the same escaper dump() uses; a value without one is emitted
// as is.  Any lexical problem refuses.
bool RequestCodec::canon_string() {
  if (pos_ >= s_.size() || s_[pos_] != '"') return false;
  const std::size_t raw_start = ++pos_;
  bool escaped = false;  // strbuf_ holds the unescaped value from the first escape on
  while (true) {
    if (pos_ >= s_.size()) return false;  // unterminated
    const char c = s_[pos_++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    if (c != '\\') {
      if (escaped) strbuf_.push_back(c);
      continue;
    }
    if (!escaped) {
      strbuf_.assign(s_.data() + raw_start, pos_ - 1 - raw_start);
      escaped = true;
    }
    if (pos_ >= s_.size()) return false;
    const char e = s_[pos_++];
    switch (e) {
      case '"': strbuf_.push_back('"'); break;
      case '\\': strbuf_.push_back('\\'); break;
      case '/': strbuf_.push_back('/'); break;
      case 'b': strbuf_.push_back('\b'); break;
      case 'f': strbuf_.push_back('\f'); break;
      case 'n': strbuf_.push_back('\n'); break;
      case 'r': strbuf_.push_back('\r'); break;
      case 't': strbuf_.push_back('\t'); break;
      case 'u': {
        const auto hex4 = [&]() -> int {
          if (pos_ + 4 > s_.size()) return -1;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return -1;
          }
          return static_cast<int>(v);
        };
        int cp = hex4();
        if (cp < 0) return false;
        unsigned u = static_cast<unsigned>(cp);
        if (u >= 0xD800 && u <= 0xDBFF) {  // surrogate pair
          if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u')
            return false;
          pos_ += 2;
          const int lo = hex4();
          if (lo < 0 || lo < 0xDC00 || lo > 0xDFFF) return false;
          u = 0x10000 + ((u - 0xD800) << 10) +
              (static_cast<unsigned>(lo) - 0xDC00);
        }
        if (u < 0x80) {
          strbuf_.push_back(static_cast<char>(u));
        } else if (u < 0x800) {
          strbuf_.push_back(static_cast<char>(0xC0 | (u >> 6)));
          strbuf_.push_back(static_cast<char>(0x80 | (u & 0x3F)));
        } else if (u < 0x10000) {
          strbuf_.push_back(static_cast<char>(0xE0 | (u >> 12)));
          strbuf_.push_back(static_cast<char>(0x80 | ((u >> 6) & 0x3F)));
          strbuf_.push_back(static_cast<char>(0x80 | (u & 0x3F)));
        } else {
          strbuf_.push_back(static_cast<char>(0xF0 | (u >> 18)));
          strbuf_.push_back(static_cast<char>(0x80 | ((u >> 12) & 0x3F)));
          strbuf_.push_back(static_cast<char>(0x80 | ((u >> 6) & 0x3F)));
          strbuf_.push_back(static_cast<char>(0x80 | (u & 0x3F)));
        }
        break;
      }
      default:
        return false;
    }
  }
  last_str_raw_ = s_.substr(raw_start, pos_ - 1 - raw_start);
  last_str_escaped_ = escaped;
  last_kind_ = Kind::Str;
  if (escaped) {
    append_json_string(strbuf_, canon_);
  } else {
    // No escape and no raw control byte: the source bytes are already
    // the escaper's output.
    canon_.push_back('"');
    canon_.append(last_str_raw_);
    canon_.push_back('"');
  }
  return true;
}

// Replicates Parser::parse_number exactly: token scan, integral tokens
// through strtoll (falling through to strtod on overflow), doubles in
// the signature form of append_signature_number, as the DOM path's
// Json::dump_signature_to writes them.
bool RequestCodec::canon_number() {
  const std::size_t start = pos_;
  if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
  while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  bool integral = true;
  if (pos_ < s_.size() && s_[pos_] == '.') {
    integral = false;
    ++pos_;
    while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  }
  if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
    while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  }
  if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) return false;
  const std::size_t sign = s_[start] == '-' ? 1 : 0;
  if (integral && pos_ - start - sign <= 18) {
    // Up to 18 digits cannot overflow int64: no strtoll needed.
    std::int64_t v = 0;
    for (std::size_t i = start + sign; i < pos_; ++i) v = v * 10 + (s_[i] - '0');
    support::append_int(canon_, sign != 0 ? -v : v);
    last_kind_ = Kind::Int;
    return true;
  }
  strbuf_.assign(s_.data() + start, pos_ - start);
  if (integral) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(strbuf_.c_str(), &end, 10);
    if (errno == 0 && end != nullptr && *end == '\0') {
      support::append_int(canon_, static_cast<std::int64_t>(v));
      last_kind_ = Kind::Int;
      return true;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(strbuf_.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  append_signature_number(d, canon_);
  last_kind_ = Kind::Other;
  return true;
}

bool RequestCodec::canon_array() {
  ++pos_;  // '['
  canon_.push_back('[');
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == ']') {
    ++pos_;
    canon_.push_back(']');
    return true;
  }
  bool first = true;
  while (true) {
    if (!first) canon_.push_back(',');
    first = false;
    if (!canon_value()) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (s_[pos_] == ']') {
      ++pos_;
      canon_.push_back(']');
      return true;
    }
    return false;
  }
}

// Emit an object's members, tracking whether the source order is already
// strictly sorted; when it is not (or keys repeat), rebuild_object sorts
// the emitted pairs and keeps the last duplicate, matching the std::map
// parse tree (sorted iteration, operator[] last-wins).
bool RequestCodec::canon_object() {
  ++pos_;  // '{'
  const std::size_t base = members_.size();
  const std::size_t body_start = canon_.size() + 1;
  canon_.push_back('{');
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == '}') {
    ++pos_;
    canon_.push_back('}');
    return true;
  }
  bool sorted = true;
  while (true) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    const std::size_t key_src = ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      // An escaped or control-bearing key refuses: escaped-form byte
      // order is not unescaped-key order, so sorting would diverge.
      if (c == '\\' || c < 0x20) return false;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    const std::string_view key = s_.substr(key_src, pos_ - key_src);
    ++pos_;  // closing quote
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != ':') return false;
    ++pos_;
    if (members_.size() > base) canon_.push_back(',');
    const std::size_t pair_off = canon_.size();
    canon_.push_back('"');
    canon_.append(key);
    canon_ += "\":";
    if (!canon_value()) return false;
    Member m;
    m.key_off = static_cast<std::uint32_t>(pair_off + 1);
    m.key_len = static_cast<std::uint32_t>(key.size());
    m.pair_off = static_cast<std::uint32_t>(pair_off);
    m.pair_len = static_cast<std::uint32_t>(canon_.size() - pair_off);
    if (members_.size() > base && !(key_of(members_.back()) < key_of(m))) {
      sorted = false;
    }
    members_.push_back(m);
    skip_ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (s_[pos_] == '}') {
      ++pos_;
      break;
    }
    return false;
  }
  if (!sorted) rebuild_object(base, body_start);
  canon_.push_back('}');
  members_.resize(base);
  return true;
}

void RequestCodec::rebuild_object(std::size_t base, std::size_t body_start) {
  // Stable insertion sort: request objects hold a handful of members, and
  // std::stable_sort would heap-allocate its merge buffer on every call.
  for (std::size_t i = base + 1; i < members_.size(); ++i) {
    const Member m = members_[i];
    std::size_t j = i;
    while (j > base && key_of(m) < key_of(members_[j - 1])) {
      members_[j] = members_[j - 1];
      --j;
    }
    members_[j] = m;
  }
  reorder_.clear();
  for (std::size_t i = base; i < members_.size(); ++i) {
    // Duplicate keys: the stable sort kept source order within a run, so
    // skipping all but the run's last entry is std::map last-wins.
    if (i + 1 < members_.size() &&
        key_of(members_[i + 1]) == key_of(members_[i])) {
      continue;
    }
    if (!reorder_.empty()) reorder_.push_back(',');
    reorder_.append(canon_, members_[i].pair_off, members_[i].pair_len);
  }
  canon_.resize(body_start);
  canon_.append(reorder_);
}

bool RequestCodec::canon_value() {
  if (++depth_ > kMaxDepth) return false;
  skip_ws();
  if (pos_ >= s_.size()) return false;
  bool ok = false;
  switch (s_[pos_]) {
    case 'n':
      ok = s_.substr(pos_, 4) == "null";
      if (ok) {
        pos_ += 4;
        canon_ += "null";
        last_kind_ = Kind::Other;
      }
      break;
    case 't':
      ok = s_.substr(pos_, 4) == "true";
      if (ok) {
        pos_ += 4;
        canon_ += "true";
        last_kind_ = Kind::Other;
      }
      break;
    case 'f':
      ok = s_.substr(pos_, 5) == "false";
      if (ok) {
        pos_ += 5;
        canon_ += "false";
        last_kind_ = Kind::Other;
      }
      break;
    case '"':
      ok = canon_string();
      break;
    case '[':
      ok = canon_array();
      last_kind_ = Kind::Other;
      break;
    case '{':
      ok = canon_object();
      last_kind_ = Kind::Other;
      break;
    default:
      ok = canon_number();
      break;
  }
  --depth_;
  return ok;
}

// An integer envelope field ("id", "deadline_ms", "trace_id"): must be a
// plain int64 (anything else makes the DOM path's as_int() throw, so
// refuse and let it).  Not emitted -- the signature strips it.
bool RequestCodec::parse_int_value(std::int64_t& v) {
  skip_ws();
  const std::size_t start = pos_;
  if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
  const std::size_t digits = pos_;
  while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  if (pos_ == digits) return false;
  if (pos_ < s_.size() &&
      (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
    return false;
  }
  strbuf_.assign(s_.data() + start, pos_ - start);
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(strbuf_.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  v = static_cast<std::int64_t>(parsed);
  return true;
}

bool RequestCodec::canonicalize_query(std::string_view line, FastQuery& out) {
  s_ = line;
  pos_ = 0;
  depth_ = 0;
  canon_.clear();
  members_.clear();
  bool have_op = false;
  Op op = Op::Other;
  std::int64_t id = kNoId;
  std::int64_t deadline_ms = -1;
  std::int64_t trace_id = 0;
  bool have_deadline = false;
  bool have_trace = false;

  skip_ws();
  if (pos_ >= s_.size() || s_[pos_] != '{') return false;
  ++pos_;
  canon_.push_back('{');
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == '}') return false;  // no "op"

  // Top-level loop: like canon_object, plus transport-field handling and
  // op extraction.
  bool sorted = true;
  while (true) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    const std::size_t key_src = ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '\\' || c < 0x20) return false;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    const std::string_view key = s_.substr(key_src, pos_ - key_src);
    ++pos_;
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != ':') return false;
    ++pos_;

    // Envelope fields: parsed, not emitted.  Duplicates: the last one
    // wins, like the DOM's operator[]; its value is checked after the
    // loop.
    if (key == "id" || key == "deadline_ms" || key == "trace_id") {
      have_deadline |= key == "deadline_ms";
      have_trace |= key == "trace_id";
      std::int64_t& v =
          key == "id" ? id : key == "deadline_ms" ? deadline_ms : trace_id;
      if (!parse_int_value(v)) return false;
    } else {
      if (!members_.empty()) canon_.push_back(',');
      const std::size_t pair_off = canon_.size();
      canon_.push_back('"');
      canon_.append(key);
      canon_ += "\":";
      if (!canon_value()) return false;
      if (key == "op") {
        if (last_kind_ != Kind::Str || last_str_escaped_) return false;
        op = parse_op(last_str_raw_);
        have_op = true;
      }
      Member m;
      m.key_off = static_cast<std::uint32_t>(pair_off + 1);
      m.key_len = static_cast<std::uint32_t>(key.size());
      m.pair_off = static_cast<std::uint32_t>(pair_off);
      m.pair_len = static_cast<std::uint32_t>(canon_.size() - pair_off);
      if (!members_.empty() && !(key_of(members_.back()) < key_of(m))) {
        sorted = false;
      }
      members_.push_back(m);
    }
    skip_ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (s_[pos_] == '}') {
      ++pos_;
      break;
    }
    return false;
  }
  skip_ws();
  if (pos_ != s_.size()) return false;  // trailing bytes: parse error
  if (!have_op) return false;
  // Values the DOM path answers with an envelope error of its own.
  if ((have_deadline && deadline_ms < 0) || (have_trace && trace_id <= 0)) {
    return false;
  }
  if (!sorted) rebuild_object(0, 1);
  canon_.push_back('}');
  members_.clear();

  out.signature = canon_;
  out.op = op;
  out.id = id;
  out.deadline_ms = deadline_ms;
  out.trace_id = static_cast<std::uint64_t>(trace_id);
  out.hash = cache_checksum(out.signature);
  return true;
}

RequestCodec& thread_codec() {
  thread_local RequestCodec codec;
  return codec;
}

}  // namespace pmonge::serve
