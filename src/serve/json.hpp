// Minimal JSON value / parser / serializer for the serve layer's
// newline-delimited protocol.  No external dependency: the container
// toolchain ships none, and the subset the protocol needs (null, bool,
// 64-bit integers, doubles, strings, arrays, objects) is small.
//
// Serialization is *canonical*: object keys emit in sorted order (the
// storage is a std::map), no insignificant whitespace, integers as
// decimal int64, doubles via "%.17g" (shortest round-trippable form is
// not required -- only determinism is, and 17 significant digits make
// dump(parse(dump(x))) == dump(x) hold exactly).  Canonical bytes are
// what the serve cache keys on and what the bit-identical-response
// guarantee is stated over.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace pmonge::serve {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };
  using Arr = std::vector<Json>;
  using Obj = std::map<std::string, Json>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  template <class I>
    requires(std::is_integral_v<I> && !std::is_same_v<I, bool>)
  Json(I n) : v_(static_cast<std::int64_t>(n)) {}
  Json(double d) : v_(d) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Arr a) : v_(std::move(a)) {}
  Json(Obj o) : v_(std::move(o)) {}

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_number() const {
    return type() == Type::Int || type() == Type::Double;
  }

  bool as_bool() const { return get<bool>("bool"); }
  std::int64_t as_int() const { return get<std::int64_t>("integer"); }
  /// Numeric accessor: accepts Int or Double.
  double as_double() const {
    if (type() == Type::Int) {
      return static_cast<double>(std::get<std::int64_t>(v_));
    }
    return get<double>("number");
  }
  const std::string& as_string() const { return get<std::string>("string"); }
  const Arr& arr() const { return get<Arr>("array"); }
  const Obj& obj() const { return get<Obj>("object"); }
  Arr& arr() { return std::get<Arr>(v_); }
  Obj& obj() { return std::get<Obj>(v_); }

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const {
    if (type() != Type::Object) return nullptr;
    const auto& o = std::get<Obj>(v_);
    const auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
  }
  /// Object member lookup; throws JsonError naming the key when absent.
  const Json& at(const std::string& key) const {
    const Json* p = find(key);
    if (p == nullptr)
      throw JsonError("bad_request: missing field \"" + key + "\"");
    return *p;
  }

  /// Parse one JSON document; trailing non-whitespace rejects.
  static Json parse(std::string_view text);

  /// Canonical serialization (see header comment).
  std::string dump() const;

  /// Canonical serialization appended to a caller-owned buffer; the
  /// allocation-free form of dump() for pooled response assembly.
  void dump_to(std::string& out) const;

  /// dump_to in the signature form request signatures (cache keys) use:
  /// numbers as append_signature_number writes them, everything else
  /// byte-identical to dump_to.
  void dump_signature_to(std::string& out) const;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  template <class T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    throw JsonError(std::string("bad_request: expected ") + what);
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Arr,
               Obj>
      v_;
};

/// Append a double the way a signature holds it: %.17g like dump(),
/// plus ".0" when that text would read as an integer, and +-1e999 for
/// +-infinity instead of null.  So a number parsed as a double never
/// shares a signature with an integer or with null (handlers read those
/// differently: "row":1.0 is not an integer), and reading the signature
/// back yields the parsed value.
void append_signature_number(double d, std::string& out);

/// Append `s` as a canonical JSON string literal (quotes + escapes),
/// byte-identical to how dump() emits strings and object keys.  Shared
/// with the streaming request codec (serve/codec.cpp).
void append_json_string(std::string_view s, std::string& out);

}  // namespace pmonge::serve
