#pragma once
// Minimal self-contained JSON for the lmds_serve wire protocol: a tagged
// value type, a strict recursive-descent parser, and locale-independent
// string/number emission helpers. Deliberately tiny — the protocol
// (src/server/protocol.hpp) only needs objects, arrays, strings, numbers and
// booleans — and dependency-free, since the repo vendors no third-party
// libraries.
//
// Numbers: a literal without '.', 'e' or 'E' that fits std::int64_t parses
// as Int, everything else as Double. Both satisfy as_double(); only Int
// satisfies as_int() — mirroring ParamValue's "never truncate silently"
// rule one layer down.
//
// Graph slots: an inline graph is by far the largest thing a request
// carries, and building a DOM of it (one node per integer) only to walk it
// once is the request path's dominant cost. So json_parse keeps the objects
// in the two request positions that hold graphs — the top-level "graph"
// member and the elements of the top-level "graphs" array — as Raw values:
// their source bytes, validated by the same parser (same errors, same byte
// offsets) but never materialised. decode_graph (protocol.hpp) reads them
// in one streaming pass; json_dump re-emits them verbatim.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace lmds::server {

/// Thrown by json_parse on malformed input and by the as_*() accessors on a
/// type mismatch. The serving loop maps it to a "bad_request" error line.
struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

namespace detail {
class JsonParser;
}  // namespace detail

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  /// Raw: a graph-slot object kept as its validated source bytes (only
  /// json_parse / json_parse_graph create one; see the header comment).
  enum class Type { Null, Bool, Int, Double, String, Array, Object, Raw };

  JsonValue() = default;  // null
  JsonValue(std::nullptr_t) {}                  // NOLINT(google-explicit-constructor)
  JsonValue(bool v) : v_(v) {}                  // NOLINT(google-explicit-constructor)
  JsonValue(std::int64_t v) : v_(v) {}          // NOLINT(google-explicit-constructor)
  JsonValue(double v) : v_(v) {}                // NOLINT(google-explicit-constructor)
  JsonValue(std::string v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(Array v) : v_(std::move(v)) {}      // NOLINT(google-explicit-constructor)
  JsonValue(Object v) : v_(std::move(v)) {}     // NOLINT(google-explicit-constructor)

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::Null; }

  /// Strict accessors; throw JsonError on type mismatch. as_double accepts
  /// Int (exact promotion); as_int does not accept Double.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  /// The source bytes of a Raw value: one complete, valid JSON object.
  const std::string& raw_text() const;

  /// Object member lookup; nullptr when this is not an object or the key is
  /// absent — the protocol's "optional field" idiom.
  const JsonValue* find(std::string_view key) const;

 private:
  friend class detail::JsonParser;
  struct RawText {
    std::string bytes;
  };
  explicit JsonValue(RawText raw) : v_(std::move(raw)) {}

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object, RawText>
      v_;  // index order must match Type
};

std::string_view to_string(JsonValue::Type t);

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing garbage is an error). Nesting deeper than 64
/// levels is rejected. Throws JsonError with a byte offset in the message.
/// Objects in graph slots (top-level "graph", elements of top-level
/// "graphs") come back Raw; the errors are those of a full parse.
JsonValue json_parse(std::string_view text);

/// json_parse for a document that is itself a graph slot (the body of HTTP
/// PUT /v2/graphs): a root object comes back Raw, anything else as
/// json_parse returns it. Same errors and offsets as json_parse.
JsonValue json_parse_graph(std::string_view text);

/// Appends `s` as a quoted JSON string with the mandatory escapes.
void json_append_string(std::string& out, std::string_view s);

/// Appends a finite double in locale-independent shortest round-trip form
/// (std::to_chars — never a decimal comma). Non-finite values emit null.
void json_append_double(std::string& out, double v);

/// Serializes a parsed value back to compact JSON (no whitespace). Object
/// members emit in std::map order, i.e. sorted by key — NOT the original
/// wire order, so a parse→dump round trip is canonicalizing, not
/// byte-preserving. It does preserve every value's type: an integral Double
/// gets a ".0" (5.0 dumps as "5.0", never "5"), so the router's forwarded
/// request members mean to a worker what they meant to the router. Raw
/// graph values are re-emitted verbatim, whitespace and member order
/// included. The router never dumps whole responses (their bit-identity is
/// contractual), and it splices the graph slots of the requests it
/// forwards as raw bytes.
std::string json_dump(const JsonValue& v);

}  // namespace lmds::server
