#pragma once
// The cluster router/coordinator (lmds_serve --router --peer host:port ...).
// A Router sits behind a normal ServerCore — both transports, limits,
// namespaces and counters all work unchanged — and installs itself as the
// core's dispatch override, intercepting the store-and-solve verbs:
//
//   put_graph    -> check and hash the graph (no CSR for a canonically
//                   ordered one), forward to the ring owner with the
//                   graph's bytes as sent
//   patch_graph  -> forward to the parent handle's owner; remember where the
//                   derived child lives (server::stored_graph_of reads it
//                   from the reply; its content hash need not land on the
//                   same ring segment as its parent's)
//   drop_graph   -> forward to the handle's owner
//   solve        -> decode the request with server::decode_solve_deferred
//                   (one it refuses is answered locally, as a single server
//                   would; a canonically ordered inline slot is hashed from
//                   its edges and never built into a CSR),
//                   partition the graphs array by owner (handles via the
//                   location map then the ring, inline graphs by their
//                   fingerprint so repeat traffic hits the same warm
//                   worker), gather each sub-request from its slots' raw
//                   bytes (views of the client's line, sent with one
//                   sendmsg), fan the sub-batches out concurrently, then
//                   splice the workers' response objects back together IN
//                   SLOT ORDER as raw text — bit-identical to what one
//                   server would emit (re-encoding parsed JSON would reorder
//                   keys). Sub-batch diagnostics (server::solve_diag_of)
//                   merge numerically.
//   stats        -> the local line plus a "router" member (peer count and
//                   per-peer forward counters)
//
// Everything else (solvers, open_session, save/load_cache, replicate_*,
// shutdown) falls through to the local core. Failure policy per sub-batch:
// server_busy retries on the same worker with linear backoff, then — for
// work not pinned to a worker's store (no handles) — fails over around the
// ring; connection errors fail over the same way. Handle-bound sub-batches
// cannot fail over (only the owner holds the graphs) and report the error.
//
// Worker connections are pooled per peer and created on demand, so N
// concurrent client batches fan out over N parallel connections per worker.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/session.hpp"

namespace lmds::cluster {

/// lmds_serve's --peer. The ring's points per peer (HashRing's default) and
/// the failure policy (timeouts, busy retries, backoff, location-map bound)
/// are fixed; see router.cpp.
struct RouterOptions {
  std::vector<std::string> peers;  ///< "host:port" per worker; >= 1 required
};

/// Splits a worker's {"ok":true,"op":"solve","responses":[...],...} line
/// into the verbatim text of each element of its "responses" array. The
/// views point into `line`. Returns std::nullopt when the line is not a
/// solve success line of that exact shape. A non-null `tail` receives the
/// bytes after the array's closing ']' (the namespace and diag members).
/// Exposed for tests — this scanner is what routed bit-identity rests on.
std::optional<std::vector<std::string_view>> split_raw_responses(std::string_view line,
                                                                std::string_view* tail = nullptr);

class Router {
 public:
  /// `core` must outlive the Router. Call install() to take over dispatch.
  Router(RouterOptions opts, server::ServerCore& core);

  /// Registers this router as `core`'s dispatch override. Call before
  /// serving starts (the override is read unsynchronized afterwards).
  void install();

  /// The dispatch override: a response line for intercepted verbs,
  /// std::nullopt to fall through to the local implementation.
  std::optional<std::string> route(server::Session& session, std::string_view verb,
                                   const server::JsonValue& root);

  const HashRing& ring() const { return ring_; }

  /// Extra same-worker attempts on server_busy, before failover.
  static constexpr int kBusyRetries = 2;

 private:
  /// One worker connection; a null pointer is dialed on first use.
  using ClientPtr = std::unique_ptr<server::ProtocolClient>;

  /// A pooled solve connection for `peer` (null when the pool is empty), and
  /// its return after a clean round trip.
  ClientPtr acquire(std::size_t peer) LMDS_EXCLUDES(pool_mu_);
  void release(std::size_t peer, ClientPtr client) LMDS_EXCLUDES(pool_mu_);

  /// One request line (newline included, its pieces sent as is in one
  /// gathered write) against `peer` over `client`, dialing it first when
  /// null. Returns the verbatim response line (raw text — never
  /// reparsed-and-reencoded). On connect/IO failure resets `client` (its
  /// stream state is unknown) and throws std::runtime_error.
  std::string exchange(std::size_t peer, ClientPtr& client,
                       std::span<const std::string_view> line);

  /// Full failure policy (busy backoff + optional ring failover) around
  /// exchange(). `preference` is the peer order to try; `can_fail_over`
  /// false restricts it to the first entry. Solves ride a pooled connection;
  /// `control` verbs (put/patch/drop) ride the peer's single long-lived
  /// control connection, serialized by control_mu_ (these verbs are rare
  /// next to solves) — pins belong to the worker-side session that made
  /// them, so a drop sent over a different connection than its put would
  /// fail ownership. Every attempt sends the same pieces. Returns the first
  /// non-busy response, or an encoded error line when every attempt failed.
  std::string forward(const std::vector<std::size_t>& preference, bool can_fail_over,
                      bool control, std::span<const std::string_view> line)
      LMDS_EXCLUDES(pool_mu_, control_mu_);

  std::optional<std::string> route_solve(server::Session& session,
                                         const server::JsonValue& root);
  std::optional<std::string> route_put(const server::JsonValue& root);
  std::optional<std::string> route_patch(const server::JsonValue& root);
  std::optional<std::string> route_drop(const server::JsonValue& root);
  std::string route_stats(server::Session& session, const server::JsonValue& root);

  /// Owner lookup for a well-formed handle: the location map (patch-derived
  /// children) first, then the ring over the handle's own fingerprint.
  std::size_t locate_handle(const std::string& handle, std::uint64_t hash)
      LMDS_EXCLUDES(loc_mu_);
  void record_location(const std::string& handle, std::size_t peer) LMDS_EXCLUDES(loc_mu_);

  const RouterOptions opts_;
  server::ServerCore& core_;
  HashRing ring_;

  common::Mutex pool_mu_;
  std::vector<std::vector<ClientPtr>> pool_ LMDS_GUARDED_BY(pool_mu_);  // per peer

  common::Mutex control_mu_;
  std::vector<ClientPtr> control_ LMDS_GUARDED_BY(control_mu_);  // per peer, lazy

  common::Mutex loc_mu_;
  /// Patch-derived child handle -> owning peer index. Bounded by
  /// kMaxLocations in router.cpp (arbitrary eviction — a miss just
  /// means the ring answers, and for a child that can be unknown_handle,
  /// the same answer an over-capacity single server would give).
  std::unordered_map<std::string, std::size_t> locations_ LMDS_GUARDED_BY(loc_mu_);

  /// Forward counters per peer, surfaced by route_stats.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> forwards_;
};

}  // namespace lmds::cluster
