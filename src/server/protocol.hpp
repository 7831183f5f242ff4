#pragma once
// The lmds_serve wire protocol (v2): newline-delimited JSON over TCP, one
// request object per line in, one response object per line out; the same
// verbs are also reachable over the HTTP front-end (src/server/http.hpp).
//
// Solve request (v2 — graphs may be inline edge lists *or* store handles):
//   {"op":"solve","solver":"algorithm1",
//    "options":{"t":5,"twin_removal":true},          // optional
//    "measure_traffic":false,"measure_ratio":true,   // optional, default false
//    "batch":{"threads":2,"shard_size":8,            // optional per-request
//             "no_cache":false},                     //   executor overrides
//    "namespace":"tenant-a",                         // optional cache namespace
//    "graphs":[{"n":4,"edges":[[0,1],[1,2]]},        // v1 inline edge list
//              "g00e1f2a3b4c5d6e7"]}                 // v2 graph-store handle
//
// A request whose graphs are all inline edge lists and that names no v2
// field is exactly the v1 protocol and is answered unchanged — v1 clients
// keep working against a v2 server.
//
// Graph-store requests:
//   {"op":"put_graph","graph":{"n":4,"edges":[[0,1]]}}   -> {"handle":...}
//   {"op":"drop_graph","handle":"g00e1..."}
// A put or patch whose graph's handle already names a different graph (a
// 64-bit graph_hash collision) is a bad_request naming the handle; the
// stored graph is kept.
//
// Dynamic graphs (v2.1): a batch of edge edits against a stored handle
// yields a new content-addressed handle (HTTP: POST /v2/graphs/<h>/patch
// with the add/del/n object as the body):
//   {"op":"patch_graph","handle":"g00e1...",
//    "add":[[0,3],[2,5]],"del":[[0,1]],"n":8}    // all three optional,
//                                                // at least one required
//   -> {"ok":true,"op":"patch_graph","handle":"g7c2...","parent":"g00e1...",
//       "n":8,"m":13,"new":true}                 // "new":false = the child
//                                                // already existed (re-pin)
// The child structurally shares unchanged adjacency with its parent and
// records its lineage, so a solve against it with a LOCAL solver is answered
// incrementally (ball-granular re-solve; see api/executor.hpp). The edits
// must be consistent: no self-loops, no duplicates, added edges absent,
// deleted edges present, n only grows — anything else is a bad_request.
//
// Session requests:
//   {"op":"open_session","namespace":"tenant-a"}  select this connection's
//                                                 default cache namespace
//
// Admin requests:
//   {"op":"solvers"}                  registry enumeration
//   {"op":"stats"}                    cache (global + per-namespace), graph
//                                     store (incl. per-namespace bytes and
//                                     per-session pin-lease counts when any
//                                     exist), server counters, uptime
//   {"op":"save_cache","path":"f"}    snapshot the response cache to disk
//   {"op":"load_cache","path":"f"}    warm the response cache from disk
//   {"op":"shutdown"}                 stop accepting, drain, exit
//
// Cluster replication (src/cluster/replication.hpp builds the payloads):
//   {"op":"replicate_out"}            export this server's graph store +
//                                     cache snapshot as an inline payload
//                                     (HTTP: GET /v2/replicate)
//   {"op":"replicate_out","peer":"host:port"}   push the payload to a peer's
//                                     replicate_in (HTTP: POST
//                                     /v2/replicate/push)
//   {"op":"replicate_in","graphs":[...],"cache":"<base64>"}   install a
//                                     payload: graphs land unpinned, cache
//                                     entries merge without evicting local
//                                     ones (HTTP: POST /v2/replicate)
//
// Responses: {"ok":true,"op":...,...} on success;
// {"ok":false,"code":"bad_request"|"unknown_solver"|"unknown_handle"|
//  "solver_failure"|"io_error"|"server_busy","error":"message"} on failure.
// A solve response carries one entry per input graph plus the batch's
// executor diagnostics:
//   {"ok":true,"op":"solve","responses":[{"solver":..,"problem":"mds",
//    "solution":[..],"valid":true,"rounds":..,
//    "traffic":{..}?,"ratio":{..}?}, ...],
//    "namespace":"tenant-a",   // only when non-default
//    "diag":{"threads":..,"shards":..,"stolen_shards":..,"cache_hits":..,
//            "cache_misses":..,"cache_evictions":..,
//            "incremental_solves":..,"incremental_fallbacks":..,   // only when
//            "incremental_dirty":..}}                              // nonzero
//
// This header is socket-free: parsing/encoding is pure string work, so
// tests/test_server.cpp exercises the whole protocol without a network.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/executor.hpp"
#include "api/graph_store.hpp"
#include "api/registry.hpp"
#include "graph/graph.hpp"
#include "server/json.hpp"

namespace lmds::server {

/// Wire-visible failure classes; the `code` field of an error line.
enum class ErrorCode {
  BadRequest,
  UnknownSolver,
  UnknownHandle,
  SolverFailure,
  IoError,
  ServerBusy,
};

std::string_view to_string(ErrorCode code);

/// Thrown by the decode helpers; the serving loop turns it into an error
/// line via encode_error(code(), what()).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Request-size guard rails, enforced before any solver runs. Defaults are
/// deliberately generous; lmds_serve exposes them as flags.
struct ServerLimits {
  std::size_t max_line_bytes = 8u << 20;  ///< one request line / HTTP body
  int max_graph_vertices = 1'000'000;     ///< per decoded graph
  std::size_t max_batch_graphs = 10'000;  ///< graphs per solve request
  /// Multi-tenant quotas (0 = unlimited, the historical behavior).
  std::uint64_t max_namespace_store_bytes = 0;  ///< approx graph-store bytes
                                                ///< one namespace may hold;
                                                ///< exceeding = server_busy
  int max_namespace_inflight = 0;  ///< concurrent solve requests one
                                   ///< namespace may have in flight;
                                   ///< exceeding = server_busy (admission
                                   ///< control, never a queue)
};

/// An inline graph that passed every decode check with its edges in
/// canonical order: their normalized pairs (min, max) strictly increasing,
/// as encode_graph_json and every bench client send them. Its graph_hash
/// was summed from the collected edges, and its CSR is built only when
/// build_graph is called — on a cache miss, by the thread that solves it.
/// It shares ownership of its parsed slot, so it cannot outlive the edges
/// it reads.
struct DeferredGraph {
  std::shared_ptr<const GraphSlot> slot;
  int n = 0;  ///< the vertex count the checks settled on
};

/// The CSR of a deferred graph. Canonical edges fill every row sorted and
/// duplicate-free, and the hash is already known, so this is a counting
/// sort with no hash fold.
graph::Graph build_graph(const DeferredGraph& deferred);

/// One entry of a solve request's "graphs" array: an inline edge-list graph
/// (v1), built or deferred, or a graph-store handle (v2). Only
/// decode_solve_deferred leaves a DeferredGraph in a request.
using GraphRef = std::variant<graph::Graph, std::string, DeferredGraph>;

/// A decoded solve request: the solver name, the request shape (options +
/// flags; Request::graph stays null — batch entry points take the graphs
/// separately), the graph references in request order, the per-request
/// executor overrides (threads / shard_size / no_cache; the cache
/// namespace is filled in by the Session from `ns` or its open_session
/// state).
struct SolveRequest {
  std::string solver;
  api::Request request;
  std::vector<GraphRef> graphs;
  /// graph_hash per slot, parallel to `graphs`: a handle's own fingerprint,
  /// or the hash the decoder computed while checking an inline graph — so
  /// the executor never walks a request graph to key it.
  std::vector<std::uint64_t> hashes;
  api::BatchOverrides overrides;
  std::optional<std::string> ns;  ///< request-level namespace override
};

/// A decoded graph and its graph_hash.
struct DecodedGraph {
  graph::Graph graph;
  std::uint64_t hash = 0;
};

/// A checked inline graph and its graph_hash: deferred when its edges came
/// in canonical order, else built, with the hash folded into the build.
struct CheckedGraph {
  std::variant<graph::Graph, DeferredGraph> graph;
  std::uint64_t hash = 0;
};

/// Checks {"n":int?,"edges":[[u,v],...]} as a graph and hashes it. `n` is
/// optional — absent, it becomes max endpoint + 1 — and may come before or
/// after "edges"; duplicate members resolve last-wins and escaped member
/// names count as their decoded names, as in json_parse. Duplicate edges
/// (either orientation) collapse. Throws ProtocolError(BadRequest) with
/// checks in this precedence: not an object; "edges" absent, then not an
/// array; "n" not an int, out of int range, negative or beyond
/// limits.max_graph_vertices; then edge by edge in array order — not a
/// [u, v] pair, an endpoint not an int or out of int range, negative, at or
/// beyond n, beyond the limit, a self-loop.
///
/// A Raw value (json_parse's graph slots) is not read again: json_parse
/// collected its "n" and its edges while validating it (GraphSlot), so
/// this replays the limit, self-loop and "n" checks over the collected
/// edges in the order above. The same loop sums graph_hash's edge terms
/// while the normalized pairs stay strictly increasing; if they do to the
/// end, the graph is deferred. Any other order builds the CSR here by
/// counting sort and folds graph_hash into the build — the cheaper path
/// for such input than hashing a sorted copy. An in-memory object (built
/// by code, not parsed from a slot) is json_dump'ed and collected by
/// json_parse_graph.
CheckedGraph decode_graph_deferred(const JsonValue& v, const ServerLimits& limits);

/// decode_graph_deferred, with a deferred graph built.
DecodedGraph decode_graph_hashed(const JsonValue& v, const ServerLimits& limits);

/// decode_graph_hashed without the hash.
graph::Graph decode_graph(const JsonValue& v, const ServerLimits& limits);

/// The client-side inverse of decode_graph: encodes a Graph as the wire's
/// {"n":..,"edges":[[u,v],...]} object (serve_client, benches — one encoder,
/// so clients cannot drift from the protocol).
std::string encode_graph_json(const graph::Graph& g);

/// Decodes the edit fields of a patch_graph request — "add"/"del" arrays of
/// [u,v] pairs plus an optional "n" — against the same size limits
/// decode_graph enforces. Shape problems (non-pair entries, negative or
/// over-limit endpoints, self-loops, every field absent) throw
/// ProtocolError(BadRequest) here; edit consistency against the actual
/// parent graph (duplicates, absent deletes, already-present adds) is
/// graph::apply_patch's job at execution time.
graph::GraphPatch decode_patch(const JsonValue& root, const ServerLimits& limits);

/// The client-side inverse of decode_patch: the edit fields as JSON object
/// *members* without braces (`"add":[[0,3]],"del":[],"n":8`), so the line
/// protocol can splice them next to "op"/"handle" and the HTTP front-end can
/// wrap them as a POST body (server::ProtocolClient::patch_graph does both).
std::string encode_patch_members(const graph::GraphPatch& patch);

/// Cap on a solve request's "batch" "threads" and "intra_threads" overrides.
inline constexpr int kMaxRequestThreads = 64;

/// Decodes a parsed {"op":"solve",...} object. Validates the solver name
/// against `registry` (UnknownSolver), every option value's JSON type
/// (BadRequest; int/bool/double map onto ParamValue, coercion rules are the
/// registry's), the per-request "batch" overrides against `limits`, and the
/// namespace tag. Handles are validated for shape only — resolution against
/// the store happens at execution time. Inline graphs are checked and
/// hashed by decode_graph_deferred, so a canonically ordered one stays a
/// DeferredGraph. Does not run anything. The serving paths call this one:
/// Session::do_solve hands each deferred graph's build to the executor,
/// which runs it only on a miss, and the router places slots by their
/// hashes without building any.
SolveRequest decode_solve_deferred(const JsonValue& root, const api::Registry& registry,
                                   const ServerLimits& limits);

/// decode_solve_deferred, then every deferred graph built: each inline
/// slot's GraphRef holds a graph::Graph.
SolveRequest decode_solve(const JsonValue& root, const api::Registry& registry,
                          const ServerLimits& limits);

/// Cap on a namespace tag's length (the tag itself, not the store bytes a
/// namespace may hold — that is ServerLimits::max_namespace_store_bytes).
inline constexpr std::size_t kMaxNamespaceBytes = 128;

/// Validates a namespace tag: at most kMaxNamespaceBytes bytes, no control
/// characters. Returns it; throws ProtocolError(BadRequest) else.
std::string decode_namespace(const JsonValue& v);

/// One error line (no trailing newline), e.g.
/// {"ok":false,"code":"bad_request","error":"..."}.
std::string encode_error(ErrorCode code, std::string_view message);

/// The code of an error line, read from the fixed {"ok":false,"code":"<code>",
/// prefix encode_error writes — it is the only writer of error lines, so no
/// parse is needed. std::nullopt for any other line (success lines included).
std::optional<ErrorCode> error_code_of(std::string_view line);

/// Appends one element of a solve line's "responses" array — the JSON object
/// for `r` — to `out`. The one writer of response elements:
/// encode_solve_result calls it per slot, and Session::do_solve memoizes its
/// bytes on each slot's cache entry (api::CachedResponse::memo), so a warm
/// hit splices bytes encoded once instead of re-encoding its Response.
void encode_response_element(std::string& out, const api::Response& r);

/// The solve success line: responses[i] answers graphs[i]. A non-empty `ns`
/// is echoed as a "namespace" member (absent for the default namespace, so
/// v1 responses are byte-identical to before namespaces existed).
std::string encode_solve_result(std::span<const api::Response> responses,
                                const api::BatchDiagnostics& diag,
                                std::string_view ns = {});

/// The splice variant, and the encoder of every solve line a server sends:
/// each element of `raw_responses` is the *verbatim text* of one
/// already-encoded response object, spliced into the "responses" array
/// unreparsed — a worker's reply in the router, an entry's memo in
/// Session::do_solve. The line equals encode_solve_result of the same
/// Responses byte for byte. This is also what makes a routed batch
/// bit-identical to a single-server solve — re-encoding parsed JSON would
/// reorder object keys (JsonValue::Object is a sorted map).
std::string encode_solve_result_raw(std::span<const std::string_view> raw_responses,
                                    const api::BatchDiagnostics& diag,
                                    std::string_view ns = {});

/// The head of every solve success line, up to its "responses" array's '['.
inline constexpr std::string_view kSolveHead = "{\"ok\":true,\"op\":\"solve\",\"responses\":[";

/// The inverse of a solve line's tail: the diagnostics, optional members
/// included, from the bytes after the "responses" array's closing ']'
/// (cluster::split_raw_responses' `tail`). std::nullopt unless those bytes
/// are what the encoders above write for namespace `ns`.
std::optional<api::BatchDiagnostics> solve_diag_of(std::string_view tail, std::string_view ns);

/// The put_graph success line for `put`, or with a non-empty `parent` the
/// patch_graph one: {"ok":true,"op":..,"handle":..,"parent":..,"n":..,
/// "m":..,"new":..} ("parent" only for a patch).
std::string encode_stored_graph(const api::GraphStore::PutResult& put,
                                std::string_view parent = {});

/// The inverse of encode_stored_graph: what a put_graph or patch_graph
/// success line reports (`parent` empty for a put, `put.hash` from the
/// handle). std::nullopt for any line encode_stored_graph does not write.
std::optional<api::GraphStore::PatchResult> stored_graph_of(std::string_view line);

/// The solvers success line: every registered SolverSpec with params.
std::string encode_solvers(const api::Registry& registry);

/// Lifetime counters a `stats` line reports next to the cache's.
struct ServerCounters {
  std::uint64_t connections = 0;  ///< connections accepted and served
  std::uint64_t rejected = 0;     ///< connections refused by --max-connections
  std::uint64_t requests = 0;     ///< request lines handled (any op)
  std::uint64_t graphs_solved = 0;  ///< graphs answered across solve ops
};

/// The stats success line: global cache counters, the per-namespace slices,
/// graph-store counters, executor health (batches started / in flight,
/// shards executed, solves served — api::ExecutorHealth), server counters
/// and uptime.
std::string encode_stats(const api::CacheStats& cache,
                         const std::map<std::string, api::NamespaceStats>& namespaces,
                         const api::GraphStoreStats& store,
                         const api::ExecutorHealth& executor, const ServerCounters& server,
                         double uptime_seconds);

/// Generic {"ok":true,"op":<op>} line with optional extra fields appended
/// verbatim (must be valid JSON object members, e.g. "\"entries\":3").
std::string encode_ok(std::string_view op, std::string_view extra_members = {});

}  // namespace lmds::server
