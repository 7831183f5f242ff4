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
// member and the elements of the top-level "graphs" array — as Raw values.
// Slots are collected, not only validated: the same parser (same errors,
// same byte offsets) that checks a slot's bytes also gathers its "n" and
// its "edges" elements into a GraphSlot, trying the canonical element
// [digits,digits] (1-9 digits, no sign, no whitespace; what
// encode_graph_json writes) in a tight loop before the general element
// grammar. The decoders (protocol.hpp) then check, hash and build the
// graph from the GraphSlot without reading the bytes again — a deferred
// graph shares the slot until it is built; json_dump re-emits the bytes
// verbatim.
//
// A slot's bytes are a view of the parsed text, never a copy, and the
// overload that parsed it decides who keeps that text alive:
//   - json_parse(std::string_view) owns nothing. Its caller keeps the text
//     alive while any slot's raw bytes are read (raw_text(), json_dump): the
//     Session's line for one request, the HTTP body, the router's forward.
//     Only the bytes are borrowed — what was collected (n, edges) is the
//     slot's own, so a deferred graph builds after the text is gone.
//   - json_parse(std::string&&) moves the text into one shared string that
//     every slot of the value holds, so a value parsed from a temporary
//     stays whole, with no copy.
// A string literal or const char* parses as a view. json_parse_graph has
// the same overloads.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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

struct GraphSlot;

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  /// Raw: a graph-slot object kept as its validated source bytes and what
  /// was collected from them (only json_parse / json_parse_graph create
  /// one; see the header comment).
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
  /// The source bytes of a Raw value: one complete, valid JSON object, as
  /// a view of the parsed text (see the header comment for its lifetime).
  std::string_view raw_text() const;
  /// What json_parse collected from a Raw value's bytes, shared: a holder
  /// keeps the slot alive past this value.
  const std::shared_ptr<const GraphSlot>& graph_slot() const;

  /// Object member lookup; nullptr when this is not an object or the key is
  /// absent — the protocol's "optional field" idiom.
  const JsonValue* find(std::string_view key) const;

 private:
  friend class detail::JsonParser;
  explicit JsonValue(std::shared_ptr<const GraphSlot> slot) : v_(std::move(slot)) {}

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object,
               std::shared_ptr<const GraphSlot>>
      v_;  // index order must match Type
};

/// A value as the edge-list decoder's int checks see it: its type and, for
/// an Int, its value.
struct JsonScalar {
  JsonValue::Type type = JsonValue::Type::Null;
  std::int64_t value = 0;
};

/// A graph slot as json_parse collected it: its bytes, plus the members
/// decode_graph reads. Escaped member names count as their decoded names
/// and the last of duplicate members wins, as in an eager parse. No limit
/// is applied here; the decoder replays those checks.
struct GraphSlot {
  /// An "edges" element both of whose ends are ints in [0, INT_MAX].
  struct Edge {
    std::int32_t u;
    std::int32_t w;
  };
  /// The first "edges" element that is not such an edge: `pair` is false
  /// when it is not a two-element array, else `u` and `w` are its ends.
  struct BadEdge {
    bool pair = false;
    JsonScalar u;
    JsonScalar w;
  };

  std::string_view text;        ///< the slot's source bytes, verbatim
  /// The text `text` points into when the value owns it
  /// (json_parse(std::string&&)); null when the caller keeps it alive.
  std::shared_ptr<const std::string> source;
  std::optional<JsonScalar> n;  ///< the "n" member
  bool has_edges = false;       ///< an "edges" member is present
  bool edges_is_array = false;  ///< ... and it is an array
  std::vector<Edge> edges;      ///< its elements in order, up to `bad`
  std::optional<BadEdge> bad;   ///< elements after it are validated only
};

std::string_view to_string(JsonValue::Type t);

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing garbage is an error). Nesting deeper than 64
/// levels is rejected. Throws JsonError with a byte offset in the message.
/// Objects in graph slots (top-level "graph", elements of top-level
/// "graphs") come back Raw, collected; the errors are those of a full
/// parse, and no decode error is raised here. The view overload borrows
/// `text` for the slots' raw bytes, the rvalue overload takes it over (see
/// the header comment).
JsonValue json_parse(std::string_view text);
JsonValue json_parse(std::string&& text);
inline JsonValue json_parse(const char* text) { return json_parse(std::string_view(text)); }

/// json_parse for a document that is itself a graph slot (the body of HTTP
/// PUT /v2/graphs): a root object comes back Raw, anything else as
/// json_parse returns it. Same errors, offsets and overloads as json_parse.
JsonValue json_parse_graph(std::string_view text);
JsonValue json_parse_graph(std::string&& text);
inline JsonValue json_parse_graph(const char* text) {
  return json_parse_graph(std::string_view(text));
}

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

/// Appends json_dump(v) to `out`.
void json_dump_to(std::string& out, const JsonValue& v);

}  // namespace lmds::server
