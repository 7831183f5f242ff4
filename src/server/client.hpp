#pragma once
// Client side of the lmds_serve wire protocol — one connection, either
// transport, behind "send this verb with these JSON object members, give me
// the parsed response body". Factored out of examples/serve_client.cpp so the
// soak harness (src/soak) drives a live server through exactly the code path
// a real client uses; serve_client now links this too, so the two cannot
// drift.
//
// The client is deliberately blocking: every exchange writes one request and
// reads one response. The protocol guarantees the server either answers or
// closes the connection, so "no answer, no close" is a server wedge — which
// is precisely what soak timeouts are for. A failed exchange throws and is
// never replayed: the server may already have acted on the request, so
// whoever owns the connection decides what a retry means (the cluster
// router drops the connection and applies its own retry and failover).

#include <optional>
#include <string>

#include "server/json.hpp"
#include "server/net.hpp"

namespace lmds::server {

/// How patient a ProtocolClient is with a slow or dead peer. The defaults
/// block forever (soak, serve_client, tests); the cluster router and
/// replicate_out's push dial peers with real timeouts.
struct ClientOptions {
  int connect_timeout_ms = 0;  ///< bound on the TCP connect; 0 = kernel default
  int io_timeout_ms = 0;       ///< bound on each read/write; 0 = block forever
};

/// One client connection to an lmds_serve instance. Owns the socket.
class ProtocolClient {
 public:
  /// Connects to host:port. `http` selects the HTTP/1.1 front-end framing
  /// (the verbs move into routes); `ns` is the cache namespace every request
  /// runs in ("" = default; line protocol selects it via open_session(),
  /// HTTP carries it as the X-Lmds-Namespace header on each request).
  /// Throws std::runtime_error when the TCP connect fails (or times out).
  ProtocolClient(const std::string& host, int port, bool http, std::string ns,
                 ClientOptions options = {});

  ~ProtocolClient();
  ProtocolClient(const ProtocolClient&) = delete;
  ProtocolClient& operator=(const ProtocolClient&) = delete;

  bool http() const { return http_; }
  const std::string& ns() const { return ns_; }

  /// `members` are the request-object members without the op, e.g.
  /// "\"solver\":\"greedy\",\"graphs\":[...]" (empty for admin verbs).
  /// Over HTTP the op maps onto its route; ops without an HTTP route throw.
  JsonValue exchange(const std::string& op, const std::string& members);

  /// Graph-store verbs (PUT /v2/graphs and DELETE /v2/graphs/<h> over HTTP).
  JsonValue put_graph(const std::string& graph_json);
  JsonValue drop_graph(const std::string& handle);

  /// patch_graph: derives a new handle from `handle` by a batch of edge
  /// edits. `patch_members` are the edit fields as braceless JSON object
  /// members (what encode_patch_members produces, e.g.
  /// `"add":[[0,3]],"del":[],"n":8`). Over HTTP this is
  /// POST /v2/graphs/<handle>/patch with `{patch_members}` as the body.
  JsonValue patch_graph(const std::string& handle, const std::string& patch_members);

  /// Line protocol: the session-wide namespace selection. No-op over HTTP or
  /// with the default namespace; throws if the server refuses.
  void open_session();

  /// One raw line-protocol round trip: sends `line` + '\n', parses the
  /// response line. The fuzzer's entry point for mutated requests.
  JsonValue exchange_line(const std::string& line);

  /// One raw HTTP round trip with correct framing (Content-Length computed
  /// from `body`). Public so the fuzzer can aim mutated bodies at routes.
  JsonValue exchange_http(const std::string& method, const std::string& target,
                          const std::string& body);

  /// Lowest-level access (the fuzzer, the cluster router's verbatim
  /// replies): send bytes verbatim / read one line. send_raw returns false
  /// when the server already closed the connection; read_raw_line returns
  /// nullopt on close or an I/O timeout.
  bool send_raw(const std::string& bytes);
  std::optional<std::string> read_raw_line(std::size_t max_bytes = 64u << 20);

 private:
  int fd_;
  LineReader reader_;
  bool http_;
  std::string ns_;
};

/// Throws std::runtime_error("<what> failed: ...") unless the response body
/// has "ok":true.
void require_ok(const JsonValue& response, const std::string& what);

}  // namespace lmds::server
