#pragma once
// Content-addressed store of uploaded graphs — the serving layer's answer to
// "many queries over few graphs". A client uploads a graph once (put), gets
// back a stable handle derived from the 64-bit structural fingerprint
// (src/graph/hash.hpp), and solves by handle from then on: repeated solve
// traffic skips the edge-list re-send and the JSON decode entirely.
//
// Semantics:
//  * Content-addressed — put() of an identical graph returns the same
//    handle and bumps a refcount instead of storing a second copy. The
//    handle is "g" + 16 hex digits of graph_hash; two *distinct* graphs
//    colliding on all 64 bits would share a handle (probability ~2^-40
//    across a million graphs) — the same deliberate trade the response
//    cache makes. Handles are globally stable: every server derives the
//    same handle for the same graph, which is what makes consistent-hash
//    routing and peer replication (src/cluster/) coherent.
//  * Lease-owned pins — every pin belongs to a SessionId. Session
//    kSharedSession (0) is the legacy anonymous owner: its pins form one
//    shared counter any caller may release, and they never expire. Sessions
//    >= 1 (server connections) own their pins: drop() by another session
//    fails instead of releasing them, release_session() frees them all when
//    the connection goes away, and — with a nonzero lease_ttl — leases not
//    renewed by any get/put/patch from their owner expire, so a wedged
//    client cannot pin capacity forever.
//  * Refcounted — drop() undoes one put() by the same owner. An entry whose
//    total refcount reaches zero is not freed eagerly: it moves to an
//    unpinned LRU side-list and stays resolvable (a re-put is free) until
//    capacity pressure evicts it.
//  * Capacity-evicting — put() of a *new* graph at capacity evicts unpinned
//    entries, least-recently-used first. If every stored graph is still
//    pinned (refcount > 0), put() throws GraphStoreFull — the caller (the
//    server) reports a retryable error instead of growing without bound.
//  * Namespace-quota'd — each entry charges its approximate byte footprint
//    to the namespace that first stored it. With a nonzero
//    max_namespace_bytes, a put/patch that would push one namespace past
//    its quota throws GraphStoreFull (the server answers server_busy), so
//    one tenant cannot silently evict everyone else's graphs.
//
// Thread-safe: all operations take an internal mutex. get() hands out
// shared_ptr<const Graph>, so a solve keeps its graph alive even if a
// concurrent drop/evict removes the entry mid-batch.

#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"

namespace lmds::api {

/// Thrown by GraphStore::put when the store is at capacity and every entry
/// is still pinned, or when a namespace byte quota would be exceeded —
/// retryable after a drop_graph, hence "busy" not "bad".
struct GraphStoreFull : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown by GraphStore::patch when the parent handle resolves to nothing
/// (never stored, dropped and evicted, or malformed).
struct UnknownGraphHandle : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Owner of a pin lease. kSharedSession (0) is the anonymous legacy owner;
/// server connections allocate ids >= 1 (ServerCore::allocate_session_id).
using SessionId = std::uint64_t;
inline constexpr SessionId kSharedSession = 0;

/// Provenance of a handle created by patch(): the parent graph (the
/// shared_ptr keeps the parent's CSR alive independently of store eviction),
/// its fingerprint, and the normalized edit lists (u < v, sorted). The
/// executor's ball-granular incremental re-solve consumes this to bound
/// which vertices an edit can have re-decided (api/executor.hpp).
struct PatchLineage {
  std::shared_ptr<const graph::Graph> parent;
  std::uint64_t parent_hash = 0;
  std::vector<graph::Edge> added;
  std::vector<graph::Edge> removed;
};

/// Lifetime counters; `size`/`pinned` and the two maps are instantaneous.
struct GraphStoreStats {
  std::uint64_t puts = 0;       ///< put() calls that stored a new graph
  std::uint64_t reuses = 0;     ///< put()/patch() calls answered by an existing entry
  std::uint64_t patches = 0;    ///< patch() calls that stored a new derived graph
  std::uint64_t drops = 0;      ///< successful drop() calls
  std::uint64_t evictions = 0;  ///< unpinned entries reclaimed by capacity
  std::uint64_t lease_expiries = 0;   ///< pins released by lease timeout
  std::uint64_t quota_rejections = 0; ///< puts/patches refused by a namespace quota
  std::size_t size = 0;         ///< graphs currently stored
  std::size_t pinned = 0;       ///< graphs with refcount > 0
  std::size_t capacity = 0;
  /// Approximate stored bytes charged per namespace (only namespaces
  /// currently holding entries appear).
  std::map<std::string, std::uint64_t> namespace_bytes;
  /// Live pin count per owning session (kSharedSession appears as 0).
  std::map<SessionId, std::uint64_t> session_pins;

  friend bool operator==(const GraphStoreStats&, const GraphStoreStats&) = default;
};

class GraphStore {
 public:
  /// Tuning beyond raw capacity; the extra knobs default to "off" so a
  /// GraphStore(capacity) behaves exactly as before they existed.
  struct StoreOptions {
    /// Maximum stored graphs (pinned + unpinned). 0 disables the store:
    /// every put() throws GraphStoreFull.
    std::size_t capacity = 1024;
    /// Per-namespace quota on approximate stored bytes (0 = unlimited).
    std::uint64_t max_namespace_bytes = 0;
    /// How long an owned (session >= 1) pin survives without its owner
    /// touching the entry; 0 = leases never expire.
    std::chrono::milliseconds lease_ttl{0};
  };

  explicit GraphStore(std::size_t capacity) : GraphStore(StoreOptions{.capacity = capacity}) {}
  explicit GraphStore(const StoreOptions& opts);

  struct PutResult {
    std::string handle;
    std::uint64_t hash = 0;
    bool inserted = false;  ///< false = content-addressed reuse of an entry
    int vertices = 0;
    int edges = 0;
  };

  /// Stores (or re-pins) a graph and returns its handle; the pin is leased
  /// to `session` and its bytes charged to `ns` when the entry is new.
  /// Throws GraphStoreFull when a new entry is needed and the store is at
  /// capacity with nothing evictable, or when `ns` would exceed its quota.
  PutResult put(graph::Graph g, SessionId session = kSharedSession,
                std::string_view ns = {}) LMDS_EXCLUDES(mu_);

  /// Stores a graph *unpinned* (resolvable, evictable, owned by nobody) —
  /// how replicate_in installs a peer's graphs without holding them hostage
  /// to capacity. An existing entry is promoted to most-recent instead.
  /// Throws GraphStoreFull like put().
  PutResult put_replica(graph::Graph g, std::string_view ns = {}) LMDS_EXCLUDES(mu_);

  /// Resolves a handle; nullptr when unknown (never stored, dropped *and*
  /// evicted, or malformed). Promotes an unpinned entry to most recent and
  /// renews `session`'s lease on it, if one is held.
  std::shared_ptr<const graph::Graph> get(std::string_view handle,
                                          SessionId session = kSharedSession)
      LMDS_EXCLUDES(mu_);

  /// Undoes one put() by the same owner. Returns false when the handle
  /// resolves to nothing or `session` holds no lease on it — one session
  /// cannot release another's pins.
  bool drop(std::string_view handle, SessionId session = kSharedSession) LMDS_EXCLUDES(mu_);

  struct PatchResult {
    PutResult put;       ///< the child: same fields a put() would return
    std::string parent;  ///< the (echoed) parent handle
  };

  /// Applies a batch of edge edits (graph::apply_patch) to a stored handle
  /// and stores — or, content-addressed, re-pins — the resulting child
  /// graph, recording a PatchLineage so solves against the child can be
  /// answered incrementally from the parent's cached response. While a
  /// derived entry is alive its parent entry is protected from capacity
  /// eviction (child_refs), so the lineage chain stays resolvable. Throws
  /// UnknownGraphHandle, std::invalid_argument (malformed edits —
  /// apply_patch's rules) or GraphStoreFull.
  PatchResult patch(std::string_view handle, const graph::GraphPatch& p,
                    SessionId session = kSharedSession, std::string_view ns = {})
      LMDS_EXCLUDES(mu_);

  /// Lineage of a patched handle; nullptr for put() handles and handles
  /// that resolve to nothing. The returned record is immutable and safe to
  /// hold across a concurrent drop/evict of either entry.
  std::shared_ptr<const PatchLineage> lineage(std::string_view handle) const
      LMDS_EXCLUDES(mu_);

  /// Releases every pin `session` holds (connection teardown, crashed
  /// client). Returns the number of pins released. No-op for
  /// kSharedSession — anonymous pins have no owner to clean up after.
  std::size_t release_session(SessionId session) LMDS_EXCLUDES(mu_);

  /// Expires owned leases whose ttl ran out (no-op when lease_ttl is 0).
  /// Called lazily by every put/put_replica/patch/stats, and callable
  /// directly (tests, a server's idle sweep). Returns the number of pins
  /// released.
  std::size_t expire_leases() LMDS_EXCLUDES(mu_);

  /// Every stored graph with its handle, most-recently-stored order not
  /// guaranteed — the replication verbs' snapshot of store contents. The
  /// shared_ptrs keep the graphs alive independently of concurrent evicts.
  std::vector<std::pair<std::string, std::shared_ptr<const graph::Graph>>>
  snapshot_graphs() const LMDS_EXCLUDES(mu_);

  GraphStoreStats stats() const LMDS_EXCLUDES(mu_);
  std::size_t capacity() const { return opts_.capacity; }
  const StoreOptions& options() const { return opts_; }

  /// "g" + 16 lowercase hex digits of the fingerprint.
  static std::string handle_for(std::uint64_t hash);
  /// Inverse of handle_for; nullopt on anything not of that exact shape.
  static std::optional<std::uint64_t> parse_handle(std::string_view handle);

  /// The byte footprint charged against a namespace quota: an O(1) estimate
  /// of the CSR + edge-list memory, not an exact accounting (it is an
  /// admission metric, and exactness would buy nothing).
  static std::uint64_t approx_bytes(int vertices, int edges) {
    return 64 + 16 * static_cast<std::uint64_t>(vertices) +
           16 * static_cast<std::uint64_t>(edges);
  }

 private:
  /// One owner's claim on an entry. `deadline` only matters for sessions
  /// >= 1 with a nonzero lease_ttl; it is renewed by put/get/patch.
  struct Lease {
    int count = 0;
    std::chrono::steady_clock::time_point deadline{};
  };

  struct Entry {
    std::shared_ptr<const graph::Graph> graph;
    /// Total pins = sum of lease counts (kept denormalized: the hot paths
    /// only ask "pinned at all?").
    int refs = 0;
    std::map<SessionId, Lease> leases;
    /// Valid iff refs == 0: position in unpinned_ (front = most recent).
    std::list<std::uint64_t>::iterator lru_it;
    /// Set iff the entry was created by patch(); immutable afterwards.
    std::shared_ptr<const PatchLineage> lineage;
    /// Stored entries whose lineage names this entry as parent. While
    /// nonzero the entry is skipped by capacity eviction even when
    /// unpinned — evicting it would sever a live child's lineage chain.
    int child_refs = 0;
    /// Namespace charged for this entry's bytes (set at insert; a re-pin
    /// from another namespace does not re-charge).
    std::string ns;
    std::uint64_t bytes = 0;
  };

  /// Frees the least-recently-used unpinned entry that no stored child
  /// depends on; throws GraphStoreFull when every entry is pinned or
  /// eviction-protected by a derived handle.
  void evict_unpinned_locked() LMDS_REQUIRES(mu_);
  /// Charges `bytes` to `ns`, throwing GraphStoreFull (and counting a
  /// quota rejection) when the namespace quota would be exceeded.
  void charge_namespace_locked(const std::string& ns, std::uint64_t bytes)
      LMDS_REQUIRES(mu_);
  void uncharge_namespace_locked(const std::string& ns, std::uint64_t bytes)
      LMDS_REQUIRES(mu_);
  /// Removes the entry `it` points at (already unpinned) and settles its
  /// namespace + lineage accounting.
  void erase_entry_locked(std::unordered_map<std::uint64_t, Entry>::iterator it)
      LMDS_REQUIRES(mu_);
  /// A use of `entry` by `session`: promotes an unpinned entry to most
  /// recent, or else renews `session`'s lease on it, if one is held.
  void touch_locked(Entry& entry, SessionId session) LMDS_REQUIRES(mu_);
  /// Adds one pin for `session` on `entry`, renewing its lease deadline.
  void pin_locked(Entry& entry, SessionId session) LMDS_REQUIRES(mu_);
  /// The one insert path of put, put_replica and patch: sweeps expired
  /// leases, then reuses the entry stored under `hash` (pinning it for
  /// `owner`, or promoting it when there is none) or stores `g` with
  /// `lineage`, charged to `ns` and pinned for `owner` (unpinned without
  /// one). Moves from `g` and `lineage` only when it inserts, which is what
  /// it returns. Throws GraphStoreFull like put().
  bool store_locked(graph::Graph&& g, std::uint64_t hash, std::optional<SessionId> owner,
                    std::string_view ns, std::shared_ptr<const PatchLineage>&& lineage)
      LMDS_REQUIRES(mu_);
  /// Lazy lease-ttl sweep; no-op when lease_ttl is 0.
  std::size_t expire_leases_locked() LMDS_REQUIRES(mu_);

  const StoreOptions opts_;
  mutable common::Mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_ LMDS_GUARDED_BY(mu_);
  /// front = most recently released/used
  std::list<std::uint64_t> unpinned_ LMDS_GUARDED_BY(mu_);
  /// Approximate bytes charged per namespace (keys erased at zero, so the
  /// map is bounded by live entries, not by every tag ever seen).
  std::map<std::string, std::uint64_t> ns_bytes_ LMDS_GUARDED_BY(mu_);
  std::uint64_t puts_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t patches_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t reuses_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t drops_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t lease_expiries_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t quota_rejections_ LMDS_GUARDED_BY(mu_) = 0;
};

}  // namespace lmds::api
