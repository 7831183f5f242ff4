#pragma once
// Peer replication payloads for the cluster subsystem (docs/CLUSTER.md): the
// pure build/apply halves of the replicate_out / replicate_in verbs. The
// verbs themselves live in server::Session (src/server/session.cpp) so they
// get the protocol's uniform error handling; this header keeps the payload
// format in one place, decoupled from any transport.
//
// Payload shape (the braceless members of a replicate_in request, or of a
// replicate_out response when pulling):
//
//   "graphs":[{"n":..,"edges":[[u,v],...]}, ...],   // every stored graph
//   "cache":"<base64 of a ResponseCache snapshot>",  // may be ""
//   "graph_count":N                                  // len of "graphs"
//
// Handles are content-addressed, so the graphs ship as plain edge lists and
// every receiver derives the identical handles — there is nothing to map.
// Receiving graphs are installed *unpinned* (GraphStore::put_replica): they
// are resolvable and warm, but evictable and owned by nobody, so a replica
// push can never pin a peer's capacity hostage. They are charged to the
// default namespace (replication is an operator action, not tenant traffic).
// Cache entries merge insert-if-absent without evicting the receiver's own
// entries and without touching its hit/miss counters
// (ResponseCache::merge). Patch lineage is intentionally NOT replicated: a
// solve on a replicated derived handle runs as a full solve on the peer —
// correct, just not incremental — while the merged cache snapshot still
// answers repeated solves warm.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "api/cache.hpp"
#include "api/graph_store.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"

namespace lmds::cluster {

/// Standard base64 (RFC 4648, with '=' padding). The cache snapshot is
/// binary and the wire is JSON text, so it rides in a string member.
std::string base64_encode(std::string_view bytes);

/// Inverse of base64_encode; std::nullopt on any character outside the
/// alphabet, bad padding, or a length that is not a multiple of 4.
std::optional<std::string> base64_decode(std::string_view text);

/// Builds the payload members (no surrounding braces) from a server's live
/// store + cache. Thread-safe: both structures are snapshotted under their
/// own locks.
std::string encode_replication_members(const api::GraphStore& store,
                                       const api::ResponseCache& cache);

/// What apply_replication did, echoed to the sender.
struct ReplicationResult {
  std::size_t installed = 0;  ///< graphs newly stored
  std::size_t present = 0;    ///< graphs already held (content-addressed)
  std::size_t rejected = 0;   ///< graphs refused (store full / quota / hash
                              ///< collision) — the rest of the payload
                              ///< still applies
  bool cache_merged = false;  ///< a non-empty cache snapshot was merged
};

/// Applies a parsed replicate_in request to the receiver's store + cache.
/// Graph installs are best-effort (a full store rejects, it does not abort);
/// a malformed graph or a corrupt/undecodable cache snapshot throws
/// ProtocolError(BadRequest) — graphs installed before the throw stay
/// installed (they are valid data; replication is idempotent anyway).
ReplicationResult apply_replication(const server::JsonValue& root,
                                    api::GraphStore& store, api::ResponseCache& cache,
                                    const server::ServerLimits& limits);

}  // namespace lmds::cluster
