#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/fmt.hpp"

namespace pmonge::serve {

namespace {

/// Recursive-descent parser over a string_view with a position cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        return Json(nullptr);
      case 't':
        if (!consume_word("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        return Json(false);
      case '"':
        return Json(parse_string());
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
      if (pos_ + 1 < s_.size() && s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired surrogate");
      }
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    const std::string tok(s_.substr(start, pos_ - start));
    if (tok.empty() || tok == "-") fail("bad number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Json(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    return Json(d);
  }

  Json parse_array() {
    expect('[');
    Json::Arr out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(out));
    }
  }

  Json parse_object() {
    expect('{');
    Json::Obj out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(out));
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

void dump_string(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Json& v, std::string& out, bool signature) {
  switch (v.type()) {
    case Json::Type::Null:
      out += "null";
      break;
    case Json::Type::Bool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Json::Type::Int:
      support::append_int(out, v.as_int());
      break;
    case Json::Type::Double: {
      const double d = v.as_double();
      if (signature) {
        append_signature_number(d, out);
        break;
      }
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no inf/nan; protocol values are finite
        break;
      }
      support::append_double(out, d);
      break;
    }
    case Json::Type::String:
      dump_string(v.as_string(), out);
      break;
    case Json::Type::Array: {
      out.push_back('[');
      bool first = true;
      for (const Json& e : v.arr()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(e, out, signature);
      }
      out.push_back(']');
      break;
    }
    case Json::Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.obj()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        dump_value(e, out, signature);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out, false);
  return out;
}

void Json::dump_to(std::string& out) const { dump_value(*this, out, false); }

void Json::dump_signature_to(std::string& out) const {
  dump_value(*this, out, true);
}

void append_signature_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += d < 0 ? "-1e999" : "1e999";
    return;
  }
  const std::size_t at = out.size();
  support::append_double(out, d);
  if (out.find_first_not_of("-0123456789", at) == std::string::npos) {
    out += ".0";
  }
}

void append_json_string(std::string_view s, std::string& out) {
  dump_string(s, out);
}

}  // namespace pmonge::serve
