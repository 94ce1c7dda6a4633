// Strict JSON parsing for the afpd request protocol — the missing
// counterpart to core/report's JSON *emission*.
//
// The parser is deliberately strict: one top-level value, the whole input
// consumed, RFC 8259 grammar only (no comments, no trailing commas, no bare
// nan/inf tokens), a nesting-depth cap and a duplicate-key rejection, so a
// malformed or adversarial frame becomes a JsonError the session layer maps
// to a structured invalid_config response — never undefined parser state.
//
// Values are an immutable tree of JsonValue nodes.  Numbers are doubles
// (the report emitter writes %.17g, which round-trips every double); a
// plain non-negative integer token below 2^64 also keeps its exact value,
// so 64-bit ids and seeds survive.  Object member order is preserved for
// deterministic re-emission.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace afp::service {

/// Malformed JSON: byte offset of the failure plus a one-line reason.
struct JsonError : std::runtime_error {
  JsonError(std::size_t at, const std::string& why)
      : std::runtime_error("json: " + why + " at byte " + std::to_string(at)),
        offset(at) {}
  std::size_t offset;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  /// A number parsed from an integer token whose exact value is `exact`.
  static JsonValue make_uint(double v, std::uint64_t exact);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError(0, ...) on a type mismatch so protocol
  /// code can treat shape errors exactly like parse errors.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; null when `key` is absent (never inserts).
  const JsonValue* find(const std::string& key) const;
  /// Object member that must exist; throws naming the key otherwise.
  const JsonValue& at(const std::string& key) const;

  /// The number as a non-negative integer: an integer token's exact value,
  /// else as_number() when it is whole; throws when the number has a
  /// fractional part, is negative or is 2^64 or more.
  std::uint64_t as_uint(const std::string& what) const;
  /// as_number() narrowed to an exactly-representable signed integer.
  long long as_int(const std::string& what) const;

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  bool has_uint_ = false;  ///< uint_ holds the token's exact value
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
/// `max_depth` caps array/object nesting (stack safety for hostile input).
JsonValue json_parse(std::string_view text, int max_depth = 64);

}  // namespace afp::service
