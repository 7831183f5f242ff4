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

/// Why `s` is not an int-range int, prefixed with `what`; nothing if it is.
std::optional<std::string> int_error(const JsonScalar& s, std::string_view what) {
  if (s.type != JsonValue::Type::Int) {
    return std::string(what) + ": expected int, got " + std::string(to_string(s.type));
  }
  if (s.value < std::numeric_limits<int>::min() || s.value > std::numeric_limits<int>::max()) {
    return std::string(what) + ": " + std::to_string(s.value) + " out of int range";
  }
  return std::nullopt;
}

int int_field(const JsonValue& v, std::string_view what) {
  const JsonScalar s{v.type(), v.type() == JsonValue::Type::Int ? v.as_int() : 0};
  if (std::optional<std::string> error = int_error(s, what)) bad_request(*error);
  return static_cast<int>(s.value);
}

// ---------------------------------------------------------------------------
// Edge-list decoding

/// Counting sort of `edges` into CSR rows, then each row sorted,
/// deduplicated and compacted in place. With `hash`, each row's edges to
/// higher neighbours are hashed into it as the row is finished, so
/// graph_hash costs no second walk.
graph::Graph build_csr(const std::vector<GraphSlot::Edge>& edges, int n, std::uint64_t* hash) {
  const auto count = static_cast<std::size_t>(n);
  std::vector<std::size_t> offsets(count + 1, 0);
  for (const GraphSlot::Edge& e : edges) {
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.w) + 1];
  }
  for (std::size_t v = 0; v < count; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::Vertex> neighbors(offsets[count]);
  {
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    for (const GraphSlot::Edge& e : edges) {
      neighbors[fill[static_cast<std::size_t>(e.u)]++] = e.w;
      neighbors[fill[static_cast<std::size_t>(e.w)]++] = e.u;
    }
  }
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
    if (hash) {
      *hash += graph::row_terms(static_cast<graph::Vertex>(v), {neighbors.data() + out, degree});
    }
    offsets[v] = out;
    out += degree;
  }
  offsets[count] = out;
  neighbors.resize(out);
  return graph::detail::TrustedCsr::build(std::move(offsets), std::move(neighbors));
}

/// The message of a slot's bad element: the checks json_parse could make
/// without the limits, in the order decode_graph makes them.
std::string bad_edge_message(const GraphSlot::BadEdge& bad) {
  if (!bad.pair) return "each edge must be a [u, v] pair";
  for (const JsonScalar* end : {&bad.u, &bad.w}) {
    if (std::optional<std::string> error = int_error(*end, "edge endpoint")) return *error;
  }
  return "edge endpoints must be >= 0";
}

/// decode_graph_deferred on what json_parse collected. Every edge
/// json_parse kept passed the limit-free checks, so this replays the rest
/// in decode_graph's precedence: "n" first, then edge by edge its endpoint
/// < n, limit and self-loop checks, then the bad element, if any. The same
/// loop sums the edge terms while the normalized pairs stay strictly
/// increasing: such pairs are distinct, so their sum plus the count term is
/// graph_hash of the graph they build.
CheckedGraph check_slot(const std::shared_ptr<const GraphSlot>& shared,
                        const ServerLimits& limits) {
  const GraphSlot& slot = *shared;
  if (!slot.has_edges) bad_request("graph has no \"edges\" array");
  if (!slot.edges_is_array) bad_request("\"edges\" must be an array");
  int declared_n = -1;
  if (slot.n) {
    if (std::optional<std::string> error = int_error(*slot.n, "graph \"n\"")) {
      bad_request(*error);
    }
    declared_n = static_cast<int>(slot.n->value);
    if (declared_n < 0) bad_request("graph \"n\" must be >= 0");
    if (declared_n > limits.max_graph_vertices) {
      bad_request("graph too large: n=" + std::to_string(declared_n) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
  }
  graph::Vertex max_endpoint = -1;
  bool canonical = true;
  std::uint64_t previous = 0;  // the last pair as min·2^32 + max; [0,1] is 1
  std::uint64_t edge_sum = 0;
  for (const GraphSlot::Edge& e : slot.edges) {
    const graph::Vertex hi = std::max(e.u, e.w);
    if (declared_n >= 0 && hi >= declared_n) {
      bad_request("edge endpoint " + std::to_string(hi) + " outside [0, n=" +
                  std::to_string(declared_n) + ")");
    }
    if (hi >= limits.max_graph_vertices) {
      bad_request("graph too large: endpoint " + std::to_string(hi) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
    if (e.u == e.w) bad_request("self-loop at vertex " + std::to_string(e.u));
    max_endpoint = std::max(max_endpoint, hi);
    if (canonical) {
      const graph::Vertex lo = std::min(e.u, e.w);
      const std::uint64_t pair =
          static_cast<std::uint64_t>(lo) << 32 | static_cast<std::uint64_t>(hi);
      canonical = pair > previous;
      previous = pair;
      edge_sum += graph::edge_term(lo, hi);
    }
  }
  if (slot.bad) bad_request(bad_edge_message(*slot.bad));
  const int n = declared_n >= 0 ? declared_n : max_endpoint + 1;
  std::uint64_t hash = graph::vertex_count_term(n);
  if (canonical) return {DeferredGraph{shared, n}, hash + edge_sum};
  graph::Graph built = build_csr(slot.edges, n, &hash);
  return {std::move(built), hash};
}

/// Appends `edges` as the wire's [[u,v],...] array: graphs and patches alike.
void append_edges(std::string& out, const std::vector<graph::Edge>& edges) {
  out += '[';
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i) out += ',';
    out += '[' + std::to_string(edges[i].u) + ',' + std::to_string(edges[i].v) + ']';
  }
  out += ']';
}

}  // namespace

graph::Graph build_graph(const DeferredGraph& deferred) {
  return build_csr(deferred.slot->edges, deferred.n, nullptr);
}

CheckedGraph decode_graph_deferred(const JsonValue& v, const ServerLimits& limits) {
  if (v.type() == JsonValue::Type::Raw) return check_slot(v.graph_slot(), limits);
  if (v.type() != JsonValue::Type::Object) bad_request("graph must be an object");
  // An object built in memory rather than parsed from a graph slot. json_dump
  // keeps every scalar's JSON type (a Double always dumps with '.' or an
  // exponent), so collecting the dump gives the outcome a walk of v would.
  return check_slot(json_parse_graph(json_dump(v)).graph_slot(), limits);
}

DecodedGraph decode_graph_hashed(const JsonValue& v, const ServerLimits& limits) {
  CheckedGraph checked = decode_graph_deferred(v, limits);
  if (const auto* deferred = std::get_if<DeferredGraph>(&checked.graph)) {
    return {build_graph(*deferred), checked.hash};
  }
  return {std::get<graph::Graph>(std::move(checked.graph)), checked.hash};
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

SolveRequest decode_solve_deferred(const JsonValue& root, const api::Registry& registry,
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
      CheckedGraph checked = decode_graph_deferred(g, limits);
      std::visit([&](auto& graph) { out.graphs.emplace_back(std::move(graph)); },
                 checked.graph);
      out.hashes.push_back(checked.hash);
    }
  }
  return out;
}

SolveRequest decode_solve(const JsonValue& root, const api::Registry& registry,
                          const ServerLimits& limits) {
  SolveRequest out = decode_solve_deferred(root, registry, limits);
  for (GraphRef& ref : out.graphs) {
    if (const auto* deferred = std::get_if<DeferredGraph>(&ref)) ref = build_graph(*deferred);
  }
  return out;
}

std::string encode_graph_json(const graph::Graph& g) {
  std::string out = "{\"n\":" + std::to_string(g.num_vertices()) + ",\"edges\":";
  append_edges(out, g.edges());
  out += '}';
  return out;
}

std::string encode_patch_members(const graph::GraphPatch& patch) {
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

/// The int after the first `name` (a member's spelling up to its value, e.g.
/// `"n":`) in `s`; `out` keeps its value when `name` is absent. The reply
/// readers read leniently with it, then accept only the bytes their encoder
/// writes for what they read.
template <typename Int>
void read_member(std::string_view s, std::string_view name, Int& out) {
  const std::size_t at = s.find(name);
  if (at != std::string_view::npos) {
    (void)std::from_chars(s.data() + at + name.size(), s.data() + s.size(), out);
  }
}

}  // namespace

std::optional<api::BatchDiagnostics> solve_diag_of(std::string_view tail, std::string_view ns) {
  // "diag" is the last member, and the namespace before it may spell
  // anything, so the members are read after the last "diag".
  const std::size_t at = tail.rfind("\"diag\":{");
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view members = tail.substr(at);
  api::BatchDiagnostics d;
  read_member(members, "\"threads\":", d.threads);
  read_member(members, "\"intra_threads\":", d.intra_threads);
  read_member(members, "\"shards\":", d.shards);
  read_member(members, "\"stolen_shards\":", d.stolen_shards);
  read_member(members, "\"cache_hits\":", d.cache_hits);
  read_member(members, "\"cache_misses\":", d.cache_misses);
  read_member(members, "\"cache_evictions\":", d.cache_evictions);
  read_member(members, "\"incremental_solves\":", d.incremental_solves);
  read_member(members, "\"incremental_fallbacks\":", d.incremental_fallbacks);
  read_member(members, "\"incremental_dirty\":", d.incremental_dirty);
  std::string written;
  append_solve_tail(written, d, ns);
  if (std::string_view(written).substr(1) != tail) return std::nullopt;  // past its ']'
  return d;
}

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
  if (store.hash_collisions) {
    out += ",\"hash_collisions\":" + std::to_string(store.hash_collisions);
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

std::string encode_stored_graph(const api::GraphStore::PutResult& put, std::string_view parent) {
  std::string extra = "\"handle\":";
  json_append_string(extra, put.handle);
  if (!parent.empty()) {
    extra += ",\"parent\":";
    json_append_string(extra, parent);
  }
  extra += ",\"n\":" + std::to_string(put.vertices) + ",\"m\":" + std::to_string(put.edges) +
           (put.inserted ? ",\"new\":true" : ",\"new\":false");
  return encode_ok(parent.empty() ? "put_graph" : "patch_graph", extra);
}

std::optional<api::GraphStore::PatchResult> stored_graph_of(std::string_view line) {
  const bool patch = line.starts_with("{\"ok\":true,\"op\":\"patch_graph\",");
  if (!patch && !line.starts_with("{\"ok\":true,\"op\":\"put_graph\",")) return std::nullopt;
  const auto handle = [&](std::string_view name) {
    const std::size_t at = line.find(name);
    const std::size_t start = at == std::string_view::npos ? line.size() : at + name.size();
    return std::string(line.substr(start, line.find('"', start) - start));
  };
  api::GraphStore::PatchResult out;
  out.put.handle = handle("\"handle\":\"");
  if (patch) out.parent = handle("\"parent\":\"");
  const std::optional<std::uint64_t> hash = api::GraphStore::parse_handle(out.put.handle);
  if (!hash) return std::nullopt;
  out.put.hash = *hash;
  read_member(line, ",\"n\":", out.put.vertices);
  read_member(line, ",\"m\":", out.put.edges);
  out.put.inserted = line.ends_with(",\"new\":true}");
  if (encode_stored_graph(out.put, out.parent) != line) return std::nullopt;
  return out;
}

}  // namespace lmds::server
