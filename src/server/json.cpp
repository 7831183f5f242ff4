#include "server/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>
#include <utility>

namespace lmds::server {

std::string_view to_string(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Int: return "int";
    case JsonValue::Type::Double: return "double";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
    case JsonValue::Type::Raw: return "raw";
  }
  return "?";
}

namespace {

[[noreturn]] void type_error(JsonValue::Type got, std::string_view want) {
  throw JsonError("expected " + std::string(want) + ", got " +
                  std::string(to_string(got)));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type() != Type::Bool) type_error(type(), "bool");
  return std::get<bool>(v_);
}

std::int64_t JsonValue::as_int() const {
  if (type() != Type::Int) type_error(type(), "int");
  return std::get<std::int64_t>(v_);
}

double JsonValue::as_double() const {
  if (type() == Type::Int) return static_cast<double>(std::get<std::int64_t>(v_));
  if (type() != Type::Double) type_error(type(), "number");
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  if (type() != Type::String) type_error(type(), "string");
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type() != Type::Array) type_error(type(), "array");
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type() != Type::Object) type_error(type(), "object");
  return std::get<Object>(v_);
}

const std::string& JsonValue::raw_text() const {
  if (type() != Type::Raw) type_error(type(), "raw");
  return std::get<RawText>(v_).bytes;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type() != Type::Object) return nullptr;
  const Object& obj = std::get<Object>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Parser

namespace detail {

namespace {

constexpr int kMaxDepth = 64;

/// What a validate-only parse returns in place of a value.
struct Skipped {};

}  // namespace

// One recursive-descent grammar, instantiated twice: Build = true
// materialises JsonValues, Build = false only validates (graph slots). Both
// run every branch in the same order, so on any input they fail with the
// same message at the same byte.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document(bool root_is_slot) {
    JsonValue v = root_is_slot ? parse_slot(0) : parse_value<true>(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON value");
    return v;
  }

 private:
  template <bool Build>
  using Value = std::conditional_t<Build, JsonValue, Skipped>;
  template <bool Build>
  using String = std::conditional_t<Build, std::string, Skipped>;

  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what + " at byte " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  template <bool Build, typename T>
  static Value<Build> make(T&& v) {
    if constexpr (Build) {
      return JsonValue(std::forward<T>(v));
    } else {
      return Skipped{};
    }
  }

  template <bool Build>
  Value<Build> parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object<Build>(depth);
      case '[': return parse_array<Build>(depth, /*slots=*/false);
      case '"':
        if constexpr (Build) {
          return JsonValue(parse_string<true>());
        } else {
          return parse_string<false>();
        }
      case 't':
        if (consume_literal("true")) return make<Build>(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return make<Build>(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return make<Build>(nullptr);
        fail("invalid literal");
      default: return parse_number<Build>();
    }
  }

  /// A graph slot: an object is validated without being materialised and
  /// kept as its bytes; anything else parses as usual (a handle string, or
  /// a value decode_graph will reject).
  JsonValue parse_slot(int depth) {
    skip_ws();
    if (eof() || peek() != '{') return parse_value<true>(depth);
    const std::size_t start = pos_;
    parse_value<false>(depth);
    return JsonValue(JsonValue::RawText{std::string(text_.substr(start, pos_ - start))});
  }

  template <bool Build>
  Value<Build> parse_object(int depth) {
    expect('{');
    [[maybe_unused]] JsonValue::Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return make<Build>(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      String<Build> key = parse_string<Build>();
      skip_ws();
      expect(':');
      if constexpr (Build) {
        // Only the root object (depth 0) holds graph slots.
        JsonValue value;
        if (depth == 0 && key == "graph") {
          value = parse_slot(depth + 1);
        } else if (depth == 0 && key == "graphs") {
          skip_ws();
          value = !eof() && peek() == '[' ? parse_array<true>(depth + 1, /*slots=*/true)
                                          : parse_value<true>(depth + 1);
        } else {
          value = parse_value<true>(depth + 1);
        }
        obj[std::move(key)] = std::move(value);  // duplicate key: last wins
      } else {
        parse_value<false>(depth + 1);
      }
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return make<Build>(std::move(obj));
    }
  }

  /// `slots`: the elements are graph slots (the top-level "graphs" array).
  template <bool Build>
  Value<Build> parse_array(int depth, bool slots) {
    expect('[');
    [[maybe_unused]] JsonValue::Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return make<Build>(std::move(arr));
    }
    while (true) {
      if constexpr (Build) {
        arr.push_back(slots ? parse_slot(depth + 1) : parse_value<true>(depth + 1));
      } else {
        parse_value<false>(depth + 1);
      }
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return make<Build>(std::move(arr));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return value;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  template <bool Build>
  String<Build> parse_string() {
    expect('"');
    [[maybe_unused]] std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        if constexpr (Build) {
          return out;
        } else {
          return Skipped{};
        }
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        if constexpr (Build) out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = text_[pos_++];
      char plain = 0;
      switch (e) {
        case '"': plain = '"'; break;
        case '\\': plain = '\\'; break;
        case '/': plain = '/'; break;
        case 'b': plain = '\b'; break;
        case 'f': plain = '\f'; break;
        case 'n': plain = '\n'; break;
        case 'r': plain = '\r'; break;
        case 't': plain = '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          if constexpr (Build) append_utf8(out, cp);
          continue;
        }
        default: fail("invalid escape character");
      }
      if constexpr (Build) out += plain;
    }
  }

  template <bool Build>
  Value<Build> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view lit = text_.substr(start, pos_ - start);
    if constexpr (!Build) {
      // 1..18 digits always fit int64: nothing left to check.
      const std::size_t digits = lit.size() - (lit.starts_with('-') ? 1 : 0);
      if (integral && digits >= 1 && digits <= 18) return Skipped{};
    }
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), value);
      if (ec == std::errc() && ptr == lit.data() + lit.size()) return make<Build>(value);
      // Out-of-int64-range integer literals fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), value);
    if (ec != std::errc() || ptr != lit.data() + lit.size() || !std::isfinite(value)) {
      pos_ = start;
      fail("invalid number");
    }
    return make<Build>(value);
  }
};

}  // namespace detail

JsonValue json_parse(std::string_view text) {
  return detail::JsonParser(text).parse_document(/*root_is_slot=*/false);
}

JsonValue json_parse_graph(std::string_view text) {
  return detail::JsonParser(text).parse_document(/*root_is_slot=*/true);
}

void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) {
    out += "null";
    return;
  }
  out.append(buf, ptr);
}

namespace {

void dump_value(std::string& out, const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::Null: out += "null"; break;
    case JsonValue::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Type::Int: out += std::to_string(v.as_int()); break;
    case JsonValue::Type::Double: {
      // Shortest form prints 5.0 as "5", which would parse back as an Int;
      // a ".0" keeps the value a Double through a dump/parse round trip.
      const std::size_t start = out.size();
      json_append_double(out, v.as_double());
      const std::string_view text = std::string_view(out).substr(start);
      const std::string_view digits = text.starts_with('-') ? text.substr(1) : text;
      if (!digits.empty() && digits.find_first_not_of("0123456789") == std::string_view::npos) {
        out += ".0";
      }
      break;
    }
    case JsonValue::Type::String: json_append_string(out, v.as_string()); break;
    case JsonValue::Type::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(out, item);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::Raw: out += v.raw_text(); break;
    case JsonValue::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        json_append_string(out, key);
        out += ':';
        dump_value(out, value);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string json_dump(const JsonValue& v) {
  std::string out;
  dump_value(out, v);
  return out;
}

}  // namespace lmds::server
