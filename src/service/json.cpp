#include "service/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace afp::service {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_uint(double d, std::uint64_t exact) {
  JsonValue v = make_number(d);
  v.has_uint_ = true;
  v.uint_ = exact;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.arr_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> m) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.obj_ = std::move(m);
  return v;
}

namespace {
[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw JsonError(0, std::string("expected ") + want + ", got " +
                         names[static_cast<int>(got)]);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw JsonError(0, "missing required member \"" + key + "\"");
  return *v;
}

std::uint64_t JsonValue::as_uint(const std::string& what) const {
  const double d = as_number();
  if (has_uint_) return uint_;
  // 1.8446744073709552e19 is 2^64 exactly: the cast needs d below it.
  if (!(d >= 0.0) || d != std::floor(d) || d >= 1.8446744073709552e19) {
    throw JsonError(0, what + " must be a non-negative integer below 2^64");
  }
  return static_cast<std::uint64_t>(d);
}

long long JsonValue::as_int(const std::string& what) const {
  const double d = as_number();
  if (d != std::floor(d) || d < -9.007199254740992e15 ||
      d > 9.007199254740992e15) {
    throw JsonError(0, what + " must be an integer");
  }
  return static_cast<long long>(d);
}

namespace {

/// Recursive-descent parser over a string_view; positions are byte offsets
/// into the original input for error messages.
class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      throw JsonError(pos_, "trailing characters after the document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError(pos_, why);
  }

  char peek() const {
    if (pos_ >= text_.size()) throw JsonError(pos_, "unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.size() - pos_ < n || text_.compare(pos_, n, lit) != 0) {
      fail(std::string("invalid literal (expected '") + lit + "')");
    }
    pos_ += n;
  }

  JsonValue parse_value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    switch (peek()) {
      case 'n': expect_literal("null"); return JsonValue{};
      case 't': expect_literal("true"); return JsonValue::make_bool(true);
      case 'f': expect_literal("false"); return JsonValue::make_bool(false);
      case '"': return JsonValue::make_string(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (consume(']')) return JsonValue::make_array(std::move(items));
    for (;;) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (consume(']')) break;
      expect(',');
    }
    return JsonValue::make_array(std::move(items));
  }

  JsonValue parse_object(int depth) {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      for (const auto& [k, v] : members) {
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (consume('}')) break;
      expect(',');
    }
    return JsonValue::make_object(std::move(members));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': out += parse_unicode_escape(); break;
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;  // UTF-8 bytes pass through untouched
      }
    }
  }

  /// \uXXXX (BMP only — report emission never writes surrogate pairs, and
  /// a lone surrogate is rejected rather than smuggled through).
  std::string parse_unicode_escape() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
    // Encode the code point as UTF-8.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
      // fallthrough: digits must follow
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    // Grammar check first (strtod accepts hex, inf, nan — JSON does not).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      fail("leading zero in number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digits must follow the decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digits must follow the exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (errno == ERANGE && !std::isfinite(v)) fail("number out of range");
    // An integer token below 2^64 also keeps its exact value.  from_chars
    // stops at a sign, a '.' or an exponent and reports 2^64 and above as
    // out of range; those stay doubles, which as_uint rejects.
    std::uint64_t exact = 0;
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, exact);
    if (ec == std::errc{} && ptr == last) return JsonValue::make_uint(v, exact);
    return JsonValue::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

JsonValue json_parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).parse_document();
}

}  // namespace afp::service
