#include "server/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>

#include "graph/hash.hpp"

namespace lmds::server {

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::UnknownSolver: return "unknown_solver";
    case ErrorCode::UnknownHandle: return "unknown_handle";
    case ErrorCode::SolverFailure: return "solver_failure";
    case ErrorCode::IoError: return "io_error";
    case ErrorCode::ServerBusy: return "server_busy";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw ProtocolError(ErrorCode::BadRequest, what);
}

/// A JSON value as the int checks see it: its type and, for Int, its value.
struct Scalar {
  JsonValue::Type type = JsonValue::Type::Null;
  std::int64_t value = 0;
};

/// Why `s` is not an int-range int, prefixed with `what`; nothing if it is.
std::optional<std::string> int_error(const Scalar& s, std::string_view what) {
  if (s.type != JsonValue::Type::Int) {
    return std::string(what) + ": expected int, got " + std::string(to_string(s.type));
  }
  if (s.value < std::numeric_limits<int>::min() || s.value > std::numeric_limits<int>::max()) {
    return std::string(what) + ": " + std::to_string(s.value) + " out of int range";
  }
  return std::nullopt;
}

int int_field(const JsonValue& v, std::string_view what) {
  const Scalar s{v.type(), v.type() == JsonValue::Type::Int ? v.as_int() : 0};
  if (std::optional<std::string> error = int_error(s, what)) bad_request(*error);
  return static_cast<int>(s.value);
}

// ---------------------------------------------------------------------------
// Edge-list decoding

/// decode_graph's edge checks and CSR build, fed by the raw-text scan. Edges
/// arrive in array order. "n" may follow "edges" in the object, so the one
/// check that needs it (endpoint < n) waits for finish(), which replays
/// decode_graph's precedence: "n" first, then each edge in order with all of
/// its checks.
class EdgeListDecoder {
 public:
  explicit EdgeListDecoder(const ServerLimits& limits) : limits_(limits) {}

  /// Forgets every edge: a later duplicate "edges" member wins.
  void reset() {
    edges_.clear();
    fault_.reset();
    max_endpoint_ = -1;
  }

  /// True once an edge failed a check; the caller stops feeding edges.
  bool failed() const { return fault_.has_value(); }

  /// The next element of "edges" is not a [u, v] pair.
  void bad_pair() { fault_ = Fault{"each edge must be a [u, v] pair"}; }

  /// The next element of "edges" is the pair [u, w].
  void add(const Scalar& u, const Scalar& w) {
    for (const Scalar* end : {&u, &w}) {
      if (std::optional<std::string> error = int_error(*end, "edge endpoint")) {
        fault_ = Fault{*std::move(error)};
        return;
      }
    }
    const auto a = static_cast<graph::Vertex>(u.value);
    const auto b = static_cast<graph::Vertex>(w.value);
    if (a < 0 || b < 0) {
      fault_ = Fault{"edge endpoints must be >= 0"};
      return;
    }
    const graph::Vertex hi = std::max(a, b);
    if (hi >= limits_.max_graph_vertices) {
      fault_ = Fault{"graph too large: endpoint " + std::to_string(hi) + " exceeds limit " +
                         std::to_string(limits_.max_graph_vertices),
                     hi};
      return;
    }
    if (a == b) {
      fault_ = Fault{"self-loop at vertex " + std::to_string(a), hi};
      return;
    }
    edges_.push_back({a, b});
    max_endpoint_ = std::max(max_endpoint_, hi);
  }

  DecodedGraph finish(const std::optional<Scalar>& n) const {
    int declared_n = -1;
    if (n) {
      if (std::optional<std::string> error = int_error(*n, "graph \"n\"")) bad_request(*error);
      declared_n = static_cast<int>(n->value);
      if (declared_n < 0) bad_request("graph \"n\" must be >= 0");
      if (declared_n > limits_.max_graph_vertices) {
        bad_request("graph too large: n=" + std::to_string(declared_n) + " exceeds limit " +
                    std::to_string(limits_.max_graph_vertices));
      }
      const auto outside_n = [&](graph::Vertex hi) {
        bad_request("edge endpoint " + std::to_string(hi) + " outside [0, n=" +
                    std::to_string(declared_n) + ")");
      };
      for (const Pair& e : edges_) {
        if (std::max(e.u, e.w) >= declared_n) outside_n(std::max(e.u, e.w));
      }
      if (fault_ && fault_->hi >= declared_n) outside_n(fault_->hi);
    }
    if (fault_) bad_request(fault_->message);
    return build(declared_n >= 0 ? declared_n : max_endpoint_ + 1);
  }

 private:
  struct Pair {
    graph::Vertex u;
    graph::Vertex w;
  };
  /// The failed edge. `hi` is its larger endpoint when the failed check
  /// comes after "endpoint < n" (so a smaller n reports that instead), and
  /// -1 when it comes before.
  struct Fault {
    std::string message;
    graph::Vertex hi = -1;
  };

  /// Counting sort into CSR rows, then each row sorted, deduplicated and
  /// compacted in place — and hashed as it is finished, so graph_hash costs
  /// no second walk.
  DecodedGraph build(int n) const {
    const auto count = static_cast<std::size_t>(n);
    std::vector<std::size_t> offsets(count + 1, 0);
    for (const Pair& e : edges_) {
      ++offsets[static_cast<std::size_t>(e.u) + 1];
      ++offsets[static_cast<std::size_t>(e.w) + 1];
    }
    for (std::size_t v = 0; v < count; ++v) offsets[v + 1] += offsets[v];
    std::vector<graph::Vertex> neighbors(offsets[count]);
    {
      std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
      for (const Pair& e : edges_) {
        neighbors[fill[static_cast<std::size_t>(e.u)]++] = e.w;
        neighbors[fill[static_cast<std::size_t>(e.w)]++] = e.u;
      }
    }
    graph::GraphHasher hasher(n);
    std::size_t out = 0;
    for (std::size_t v = 0; v < count; ++v) {
      const auto begin = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
      const auto end = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
      // An edge list in lexicographic order (encode_graph_json's) fills
      // every row already sorted.
      if (!std::is_sorted(begin, end)) std::sort(begin, end);
      const auto last = std::unique(begin, end);
      const auto row = neighbors.begin() + static_cast<std::ptrdiff_t>(out);
      if (row != begin) std::copy(begin, last, row);
      const auto degree = static_cast<std::size_t>(last - begin);
      hasher.add_row({neighbors.data() + out, degree});
      offsets[v] = out;
      out += degree;
    }
    offsets[count] = out;
    neighbors.resize(out);
    return {graph::detail::TrustedCsr::build(std::move(offsets), std::move(neighbors)),
            hasher.value()};
  }

  const ServerLimits& limits_;
  std::vector<Pair> edges_;  ///< the edges before the first failed one
  std::optional<Fault> fault_;
  graph::Vertex max_endpoint_ = -1;
};

/// Reads a Raw graph slot. json_parse has validated these bytes, so the
/// scanner follows the structure without re-checking the grammar (every
/// read is still bounds-checked).
class SlotScanner {
 public:
  explicit SlotScanner(std::string_view text) : text_(text) {}

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void advance() { ++pos_; }  ///< past one structural character

  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  /// A member name, decoded when it holds escapes (json_parse's own string
  /// decoder, for the rare name that needs it).
  std::string member_name() {
    const std::string_view literal = string_literal();
    if (literal.find('\\') == std::string_view::npos) {
      return std::string(literal.substr(1, literal.size() - 2));
    }
    return json_parse(literal).as_string();
  }

  void skip_value() {
    const char c = peek();
    if (c == '"') {
      (void)string_literal();
      return;
    }
    if (c != '{' && c != '[') {  // number or literal
      while (pos_ < text_.size() && !is_ws(text_[pos_]) && text_[pos_] != ',' &&
             text_[pos_] != ']' && text_[pos_] != '}') {
        ++pos_;
      }
      return;
    }
    int depth = 0;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      if (d == '"') {
        (void)string_literal();
        continue;
      }
      ++pos_;
      if (d == '{' || d == '[') {
        ++depth;
      } else if ((d == '}' || d == ']') && --depth == 0) {
        return;
      }
    }
  }

  /// The next value as the int checks see it (containers and strings are
  /// skipped, only their type matters).
  Scalar scalar() {
    switch (peek()) {
      case '{': skip_value(); return {JsonValue::Type::Object};
      case '[': skip_value(); return {JsonValue::Type::Array};
      case '"': skip_value(); return {JsonValue::Type::String};
      case 't':
      case 'f': skip_value(); return {JsonValue::Type::Bool};
      case 'n': skip_value(); return {JsonValue::Type::Null};
      default: return number();
    }
  }

 private:
  static bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

  /// At a '"': the string literal, quotes included.
  std::string_view string_literal() {
    const std::size_t start = pos_++;
    while (pos_ < text_.size() && text_[pos_] != '"') pos_ += text_[pos_] == '\\' ? 2 : 1;
    ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// A number literal typed as json_parse types it: Int when it has no '.',
  /// 'e' or 'E' and fits int64, Double otherwise.
  Scalar number() {
    const bool negative = peek() == '-';
    if (negative) ++pos_;
    std::uint64_t magnitude = 0;
    std::size_t significant = 0;  // digits after leading zeros
    for (; pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9'; ++pos_) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (significant > 0 || digit != 0) ++significant;
      // Past 19 significant digits the value no longer matters: it is out
      // of int64 range either way, and 19 digits cannot wrap a uint64.
      if (significant <= 19) magnitude = magnitude * 10 + digit;
    }
    const char c = peek();
    if (c == '.' || c == 'e' || c == 'E') {
      skip_value();
      return {JsonValue::Type::Double};
    }
    const std::uint64_t limit = (std::uint64_t{1} << 63) - (negative ? 0 : 1);
    if (significant > 19 || magnitude > limit) return {JsonValue::Type::Double};
    return {JsonValue::Type::Int,
            static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude)};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// One element of "edges" at a '['.
void scan_pair(SlotScanner& in, EdgeListDecoder& edges) {
  in.advance();
  Scalar ends[2];
  std::size_t count = 0;
  in.skip_ws();
  if (in.peek() != ']') {
    while (true) {
      in.skip_ws();
      const Scalar s = in.scalar();
      if (count < 2) ends[count] = s;
      ++count;
      in.skip_ws();
      if (in.peek() != ',') break;
      in.advance();
    }
  }
  in.advance();  // ']'
  if (count == 2) {
    edges.add(ends[0], ends[1]);
  } else {
    edges.bad_pair();
  }
}

/// The "edges" array at its '['; after the first failed element the rest
/// is skipped.
void scan_edges(SlotScanner& in, EdgeListDecoder& edges) {
  in.advance();
  in.skip_ws();
  if (in.peek() == ']') {
    in.advance();
    return;
  }
  while (true) {
    in.skip_ws();
    if (!edges.failed() && in.peek() == '[') {
      scan_pair(in, edges);
    } else {
      if (!edges.failed()) edges.bad_pair();
      in.skip_value();
    }
    in.skip_ws();
    if (in.peek() != ',') break;
    in.advance();
  }
  in.advance();  // ']'
}

DecodedGraph decode_raw_graph(std::string_view text, const ServerLimits& limits) {
  SlotScanner in(text);
  EdgeListDecoder edges(limits);
  bool have_edges = false;
  bool edges_is_array = false;
  std::optional<Scalar> n;
  in.skip_ws();
  in.advance();  // '{'
  in.skip_ws();
  if (in.peek() != '}') {
    while (true) {
      in.skip_ws();
      const std::string name = in.member_name();
      in.skip_ws();
      in.advance();  // ':'
      in.skip_ws();
      if (name == "edges") {
        have_edges = true;
        edges.reset();
        edges_is_array = in.peek() == '[';
        if (edges_is_array) {
          scan_edges(in, edges);
        } else {
          in.skip_value();
        }
      } else if (name == "n") {
        n = in.scalar();
      } else {
        in.skip_value();
      }
      in.skip_ws();
      if (in.peek() != ',') break;
      in.advance();
    }
  }
  if (!have_edges) bad_request("graph has no \"edges\" array");
  if (!edges_is_array) bad_request("\"edges\" must be an array");
  return edges.finish(n);
}

}  // namespace

DecodedGraph decode_graph_hashed(const JsonValue& v, const ServerLimits& limits) {
  if (v.type() == JsonValue::Type::Raw) return decode_raw_graph(v.raw_text(), limits);
  if (v.type() != JsonValue::Type::Object) bad_request("graph must be an object");
  // An object built in memory rather than parsed from a graph slot. json_dump
  // keeps every scalar's JSON type (a Double always dumps with '.' or an
  // exponent), so scanning the dump gives the outcome a walk of v would.
  return decode_raw_graph(json_dump(v), limits);
}

graph::Graph decode_graph(const JsonValue& v, const ServerLimits& limits) {
  return decode_graph_hashed(v, limits).graph;
}

graph::GraphPatch decode_patch(const JsonValue& root, const ServerLimits& limits) {
  graph::GraphPatch patch;
  const auto decode_edits = [&](const char* field, std::vector<graph::Edge>& out_edges) {
    const JsonValue* list = root.find(field);
    if (!list) return false;
    if (list->type() != JsonValue::Type::Array) {
      bad_request("patch \"" + std::string(field) + "\" must be an array of [u, v] pairs");
    }
    for (const JsonValue& e : list->as_array()) {
      if (e.type() != JsonValue::Type::Array || e.as_array().size() != 2) {
        bad_request("each patch edge must be a [u, v] pair");
      }
      const int u = int_field(e.as_array()[0], "patch edge endpoint");
      const int w = int_field(e.as_array()[1], "patch edge endpoint");
      if (u < 0 || w < 0) bad_request("patch edge endpoints must be >= 0");
      if (u == w) {
        bad_request("patch self-loop at vertex " + std::to_string(u) + " in \"" +
                    std::string(field) + "\"");
      }
      if (std::max(u, w) >= limits.max_graph_vertices) {
        bad_request("patch too large: endpoint " + std::to_string(std::max(u, w)) +
                    " exceeds limit " + std::to_string(limits.max_graph_vertices));
      }
      out_edges.push_back({std::min(u, w), std::max(u, w)});
    }
    return true;
  };
  bool any = decode_edits("add", patch.add);
  any = decode_edits("del", patch.del) || any;
  if (const JsonValue* n = root.find("n")) {
    any = true;
    patch.n = int_field(*n, "patch \"n\"");
    if (patch.n < 0) bad_request("patch \"n\" must be >= 0");
    if (patch.n > limits.max_graph_vertices) {
      bad_request("patch too large: n=" + std::to_string(patch.n) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
  }
  if (!any) bad_request("patch_graph needs at least one of \"add\", \"del\", \"n\"");
  return patch;
}

std::string decode_namespace(const JsonValue& v) {
  if (v.type() != JsonValue::Type::String) bad_request("\"namespace\" must be a string");
  const std::string& ns = v.as_string();
  if (ns.size() > kMaxNamespaceBytes) {
    bad_request("namespace too long: " + std::to_string(ns.size()) + " bytes exceeds limit " +
                std::to_string(kMaxNamespaceBytes));
  }
  for (const char c : ns) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7F) {
      bad_request("namespace must not contain control characters");
    }
  }
  return ns;
}

SolveRequest decode_solve(const JsonValue& root, const api::Registry& registry,
                          const ServerLimits& limits) {
  SolveRequest out;
  const JsonValue* solver = root.find("solver");
  if (!solver || solver->type() != JsonValue::Type::String) {
    bad_request("solve request needs a string \"solver\" field");
  }
  out.solver = solver->as_string();
  if (!registry.find(out.solver)) {
    throw ProtocolError(ErrorCode::UnknownSolver,
                        "unknown solver '" + out.solver + "' (try {\"op\":\"solvers\"})");
  }

  if (const JsonValue* options = root.find("options")) {
    if (options->type() != JsonValue::Type::Object) {
      bad_request("\"options\" must be an object");
    }
    for (const auto& [name, value] : options->as_object()) {
      switch (value.type()) {
        case JsonValue::Type::Bool: out.request.options[name] = value.as_bool(); break;
        case JsonValue::Type::Int:
          out.request.options[name] = int_field(value, "option \"" + name + "\"");
          break;
        case JsonValue::Type::Double: out.request.options[name] = value.as_double(); break;
        default:
          bad_request("option \"" + name + "\" must be a number or bool, got " +
                      std::string(to_string(value.type())));
      }
    }
  }
  if (const JsonValue* flag = root.find("measure_traffic")) {
    if (flag->type() != JsonValue::Type::Bool) bad_request("\"measure_traffic\" must be a bool");
    out.request.measure_traffic = flag->as_bool();
  }
  if (const JsonValue* flag = root.find("measure_ratio")) {
    if (flag->type() != JsonValue::Type::Bool) bad_request("\"measure_ratio\" must be a bool");
    out.request.measure_ratio = flag->as_bool();
  }

  // Per-request executor overrides (protocol v2). Limits are enforced here,
  // at decode time, so a rejected override never reaches the worker pool.
  if (const JsonValue* batch = root.find("batch")) {
    if (batch->type() != JsonValue::Type::Object) bad_request("\"batch\" must be an object");
    for (const auto& [name, value] : batch->as_object()) {
      if (name == "threads") {
        const int threads = int_field(value, "batch \"threads\"");
        if (threads < 1 || threads > kMaxRequestThreads) {
          bad_request("batch \"threads\" must be in [1, " +
                      std::to_string(kMaxRequestThreads) + "]");
        }
        out.overrides.threads = threads;
      } else if (name == "intra_threads") {
        const int intra = int_field(value, "batch \"intra_threads\"");
        if (intra < 1 || intra > kMaxRequestThreads) {
          bad_request("batch \"intra_threads\" must be in [1, " +
                      std::to_string(kMaxRequestThreads) + "]");
        }
        out.overrides.intra_graph_threads = intra;
      } else if (name == "shard_size") {
        const int shard = int_field(value, "batch \"shard_size\"");
        if (shard < 1 || shard > (1 << 20)) {
          bad_request("batch \"shard_size\" must be in [1, 1048576]");
        }
        out.overrides.shard_size = shard;
      } else if (name == "no_cache") {
        if (value.type() != JsonValue::Type::Bool) {
          bad_request("batch \"no_cache\" must be a bool");
        }
        out.overrides.bypass_cache = value.as_bool();
      } else {
        bad_request("unknown batch override \"" + name +
                    "\" (expected threads, intra_threads, shard_size, no_cache)");
      }
    }
  }
  if (const JsonValue* ns = root.find("namespace")) {
    out.ns = decode_namespace(*ns);
  }

  const JsonValue* graphs = root.find("graphs");
  if (!graphs || graphs->type() != JsonValue::Type::Array) {
    bad_request("solve request needs a \"graphs\" array");
  }
  if (graphs->as_array().size() > limits.max_batch_graphs) {
    bad_request("batch too large: " + std::to_string(graphs->as_array().size()) +
                " graphs exceeds limit " + std::to_string(limits.max_batch_graphs));
  }
  out.graphs.reserve(graphs->as_array().size());
  out.hashes.reserve(graphs->as_array().size());
  for (const JsonValue& g : graphs->as_array()) {
    if (g.type() == JsonValue::Type::String) {
      // v2: a graph-store handle. Shape-check now so an obvious typo fails
      // as bad_request, not as a handle that could never exist.
      const std::string& handle = g.as_string();
      const std::optional<std::uint64_t> hash = api::GraphStore::parse_handle(handle);
      if (!hash) {
        bad_request("\"" + handle +
                    "\" is not a graph handle (expected \"g\" + 16 hex digits)");
      }
      out.graphs.emplace_back(handle);
      out.hashes.push_back(*hash);
    } else {
      DecodedGraph decoded = decode_graph_hashed(g, limits);
      out.graphs.emplace_back(std::move(decoded.graph));
      out.hashes.push_back(decoded.hash);
    }
  }
  return out;
}

std::string encode_graph_json(const graph::Graph& g) {
  std::string out = "{\"n\":" + std::to_string(g.num_vertices()) + ",\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
  }
  out += "]}";
  return out;
}

std::string encode_patch_members(const graph::GraphPatch& patch) {
  const auto append_edges = [](std::string& out, const std::vector<graph::Edge>& edges) {
    out += '[';
    bool first = true;
    for (const auto& [u, v] : edges) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
    }
    out += ']';
  };
  std::string out = "\"add\":";
  append_edges(out, patch.add);
  out += ",\"del\":";
  append_edges(out, patch.del);
  if (patch.n >= 0) out += ",\"n\":" + std::to_string(patch.n);
  return out;
}

std::string encode_error(ErrorCode code, std::string_view message) {
  std::string out = "{\"ok\":false,\"code\":";
  json_append_string(out, to_string(code));
  out += ",\"error\":";
  json_append_string(out, message);
  out += '}';
  return out;
}

std::optional<ErrorCode> error_code_of(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"ok\":false,\"code\":\"";
  if (!line.starts_with(kPrefix)) return std::nullopt;
  line.remove_prefix(kPrefix.size());
  for (const ErrorCode code : {ErrorCode::BadRequest, ErrorCode::UnknownSolver,
                               ErrorCode::UnknownHandle, ErrorCode::SolverFailure,
                               ErrorCode::IoError, ErrorCode::ServerBusy}) {
    const std::string_view name = to_string(code);
    if (line.starts_with(name) && line.substr(name.size()).starts_with("\",")) return code;
  }
  return std::nullopt;
}

namespace {

/// Appends the decimal spelling of `v` — what std::to_string writes, without
/// the temporary.
template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];  // any 64-bit value with its sign
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// The longest spelling of one element of a vertex array, comma included.
constexpr std::size_t kMaxVertexChars = 12;  // ",-2147483648"

/// Appends `vs` as a JSON int array, written with std::to_chars straight into
/// `out`: the tail is sized for the longest spelling, then trimmed.
void append_vertices(std::string& out, const std::vector<api::Vertex>& vs) {
  const std::size_t start = out.size();
  out.resize(start + 2 + kMaxVertexChars * vs.size());
  char* p = out.data() + start;
  char* const end = out.data() + out.size();
  *p++ = '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) *p++ = ',';
    p = std::to_chars(p, end, vs[i]).ptr;
  }
  *p++ = ']';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

// Everything after the "responses" array — shared by the local and the
// routed (raw-splice) encoder so the two cannot drift: a routed line's tail
// is byte-for-byte the tail a single server would emit for the same merged
// diagnostics.
void append_solve_tail(std::string& out, const api::BatchDiagnostics& diag,
                       std::string_view ns) {
  out += "],";
  if (!ns.empty()) {
    // Echoed so a client multiplexing namespaces can match responses; absent
    // for the default namespace, keeping v1 responses byte-identical.
    out += "\"namespace\":";
    json_append_string(out, ns);
    out += ',';
  }
  out += "\"diag\":{\"threads\":" + std::to_string(diag.threads);
  if (diag.intra_threads > 1) {
    // Emitted only when intra-graph sharding was actually on — keeps every
    // single-threaded response line byte-identical to pre-intra clients.
    out += ",\"intra_threads\":" + std::to_string(diag.intra_threads);
  }
  out += ",\"shards\":" + std::to_string(diag.shards) +
         ",\"stolen_shards\":" + std::to_string(diag.stolen_shards) +
         ",\"cache_hits\":" + std::to_string(diag.cache_hits) +
         ",\"cache_misses\":" + std::to_string(diag.cache_misses) +
         ",\"cache_evictions\":" + std::to_string(diag.cache_evictions);
  if (diag.incremental_solves || diag.incremental_fallbacks) {
    // Only for batches that actually carried lineage — keeps every pre-v2.1
    // response line byte-identical.
    out += ",\"incremental_solves\":" + std::to_string(diag.incremental_solves) +
           ",\"incremental_fallbacks\":" + std::to_string(diag.incremental_fallbacks) +
           ",\"incremental_dirty\":" + std::to_string(diag.incremental_dirty);
  }
  out += "}}";
}

constexpr std::string_view kSolveHead = "{\"ok\":true,\"op\":\"solve\",\"responses\":[";

}  // namespace

void encode_response_element(std::string& out, const api::Response& r) {
  // Room for the whole element: the fixed members and the optional traffic
  // and ratio objects fit in 256 bytes, the solution in its longest spelling.
  out.reserve(out.size() + 256 + r.solver.size() + kMaxVertexChars * r.solution.size());
  out += "{\"solver\":";
  json_append_string(out, r.solver);
  out += ",\"problem\":";
  json_append_string(out, to_string(r.problem));
  out += ",\"solution\":";
  append_vertices(out, r.solution);
  out += r.valid ? ",\"valid\":true" : ",\"valid\":false";
  out += ",\"rounds\":";
  append_int(out, r.diag.rounds);
  if (r.diag.traffic_measured) {
    out += ",\"traffic\":{\"rounds\":";
    append_int(out, r.diag.traffic.rounds);
    out += ",\"messages\":";
    append_int(out, r.diag.traffic.messages);
    out += ",\"bytes\":";
    append_int(out, r.diag.traffic.bytes);
    out += '}';
  }
  if (r.ratio_measured) {
    out += ",\"ratio\":{\"solution_size\":";
    append_int(out, r.ratio.solution_size);
    out += ",\"reference\":";
    append_int(out, r.ratio.reference);
    out += r.ratio.exact ? ",\"exact\":true" : ",\"exact\":false";
    out += ",\"ratio\":";
    json_append_double(out, r.ratio.ratio);
    out += '}';
  }
  out += '}';
}

std::string encode_solve_result(std::span<const api::Response> responses,
                                const api::BatchDiagnostics& diag, std::string_view ns) {
  std::string out(kSolveHead);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (i) out += ',';
    encode_response_element(out, responses[i]);
  }
  append_solve_tail(out, diag, ns);
  return out;
}

std::string encode_solve_result_raw(std::span<const std::string_view> raw_responses,
                                    const api::BatchDiagnostics& diag,
                                    std::string_view ns) {
  std::size_t size = kSolveHead.size() + 256 + ns.size();  // head + tail
  for (const std::string_view raw : raw_responses) size += raw.size() + 1;
  std::string out;
  out.reserve(size);
  out += kSolveHead;
  for (std::size_t i = 0; i < raw_responses.size(); ++i) {
    if (i) out += ',';
    out += raw_responses[i];
  }
  append_solve_tail(out, diag, ns);
  return out;
}

std::string encode_solvers(const api::Registry& registry) {
  std::string out = "{\"ok\":true,\"op\":\"solvers\",\"solvers\":[";
  bool first_spec = true;
  for (const api::SolverSpec* spec : registry.specs()) {
    if (!first_spec) out += ',';
    first_spec = false;
    out += "{\"name\":";
    json_append_string(out, spec->name);
    out += ",\"problem\":";
    json_append_string(out, to_string(spec->problem));
    out += ",\"modes\":[";
    for (std::size_t i = 0; i < spec->modes.size(); ++i) {
      if (i) out += ',';
      json_append_string(out, to_string(spec->modes[i]));
    }
    out += "],\"summary\":";
    json_append_string(out, spec->summary);
    out += ",\"params\":[";
    for (std::size_t i = 0; i < spec->params.size(); ++i) {
      const api::ParamSpec& p = spec->params[i];
      if (i) out += ',';
      out += "{\"name\":";
      json_append_string(out, p.name);
      out += ",\"type\":";
      json_append_string(out, to_string(p.type()));
      out += ",\"default\":";
      switch (p.type()) {
        case api::ParamValue::Type::Int:
          out += std::to_string(p.default_value.as_int());
          break;
        case api::ParamValue::Type::Bool:
          out += p.default_value.as_bool() ? "true" : "false";
          break;
        case api::ParamValue::Type::Double:
          json_append_double(out, p.default_value.as_double());
          break;
      }
      out += ",\"description\":";
      json_append_string(out, p.description);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string encode_stats(const api::CacheStats& cache,
                         const std::map<std::string, api::NamespaceStats>& namespaces,
                         const api::GraphStoreStats& store,
                         const api::ExecutorHealth& executor, const ServerCounters& server,
                         double uptime_seconds) {
  std::string out = "{\"ok\":true,\"op\":\"stats\",\"cache\":{\"hits\":" +
                    std::to_string(cache.hits) + ",\"misses\":" + std::to_string(cache.misses) +
                    ",\"evictions\":" + std::to_string(cache.evictions) +
                    ",\"size\":" + std::to_string(cache.size) +
                    ",\"capacity\":" + std::to_string(cache.capacity) + "}";
  out += ",\"namespaces\":{";
  bool first = true;
  for (const auto& [ns, s] : namespaces) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, ns);  // "" is the default namespace
    out += ":{\"hits\":" + std::to_string(s.hits) + ",\"misses\":" + std::to_string(s.misses) +
           ",\"evictions\":" + std::to_string(s.evictions) +
           ",\"size\":" + std::to_string(s.size) + "}";
  }
  out += "},\"store\":{\"graphs\":" + std::to_string(store.size) +
         ",\"pinned\":" + std::to_string(store.pinned) +
         ",\"capacity\":" + std::to_string(store.capacity) +
         ",\"puts\":" + std::to_string(store.puts) +
         ",\"patches\":" + std::to_string(store.patches) +
         ",\"reuses\":" + std::to_string(store.reuses) +
         ",\"drops\":" + std::to_string(store.drops) +
         ",\"evictions\":" + std::to_string(store.evictions);
  // Multi-tenancy visibility (pin leases + namespace byte accounting).
  // Emitted only when the feature left a trace, so every stats line from a
  // server not using leases/quotas stays byte-identical to before.
  if (store.lease_expiries) {
    out += ",\"lease_expiries\":" + std::to_string(store.lease_expiries);
  }
  if (store.quota_rejections) {
    out += ",\"quota_rejections\":" + std::to_string(store.quota_rejections);
  }
  if (!store.namespace_bytes.empty()) {
    out += ",\"namespace_bytes\":{";
    bool first_ns = true;
    for (const auto& [ns, bytes] : store.namespace_bytes) {
      if (!first_ns) out += ',';
      first_ns = false;
      json_append_string(out, ns);
      out += ':' + std::to_string(bytes);
    }
    out += '}';
  }
  if (!store.session_pins.empty()) {
    out += ",\"session_pins\":{";
    bool first_session = true;
    for (const auto& [session, pins] : store.session_pins) {
      if (!first_session) out += ',';
      first_session = false;
      // Session ids are numeric but JSON keys are strings; 0 is the shared
      // (anonymous, legacy) session.
      json_append_string(out, std::to_string(session));
      out += ':' + std::to_string(pins);
    }
    out += '}';
  }
  out += "}";
  out += ",\"executor\":{\"batches_started\":" + std::to_string(executor.batches_started) +
         ",\"batches_in_flight\":" + std::to_string(executor.batches_in_flight) +
         ",\"shards_executed\":" + std::to_string(executor.shards_executed) +
         ",\"solves_served\":" + std::to_string(executor.solves_served) + "}";
  out += ",\"server\":{\"connections\":" + std::to_string(server.connections) +
         ",\"rejected_connections\":" + std::to_string(server.rejected) +
         ",\"requests\":" + std::to_string(server.requests) +
         ",\"graphs_solved\":" + std::to_string(server.graphs_solved) +
         ",\"uptime_seconds\":";
  json_append_double(out, uptime_seconds);
  out += "}}";
  return out;
}

std::string encode_ok(std::string_view op, std::string_view extra_members) {
  std::string out = "{\"ok\":true,\"op\":";
  json_append_string(out, op);
  if (!extra_members.empty()) {
    out += ',';
    out += extra_members;
  }
  out += '}';
  return out;
}

}  // namespace lmds::server
