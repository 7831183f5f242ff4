#pragma once
// Thread-safe LRU response cache for the batch executor (and any long-lived
// serving front-end built on it). A cached Response is keyed on
//
//   (graph_hash(G), solver name, canonicalized options, namespace)
//
// where "canonicalized options" is the *resolved* parameter map — every
// declared parameter present, request values coerced to their declared types
// — plus the measure_traffic / measure_ratio flags, serialized in sorted
// order. Canonicalization means a request that spells out a default and one
// that omits it share a cache line. The namespace is an opaque tenant tag
// ("" = the default namespace): two requests that differ only in namespace
// never share an entry, which is how a multi-tenant serving front-end keeps
// one client's warm cache invisible to another (protocol v2, src/server/).
//
// Identity is decided by the 64-bit graph_hash, not the graph itself: two
// distinct graphs colliding on all 64 bits would alias (probability ~2^-40
// across a million distinct graphs). That contract is unchanged by the
// edge-additive hash and holds for non-adversarial inputs only: the hash's
// constant is fixed in the source, so chosen inputs can collide (see
// src/graph/hash.hpp). The cache accepts the trade by design — it stores
// no graph copies and key comparison is O(|options string|). The graph
// store is exact instead: it holds the graph a handle names, so it
// compares it on every hit and refuses a collision (graph_store.hpp); a
// solve by handle therefore always reaches the cache with its own graph's
// hash.
//
// Entries are immutable and shared: insert() stores an exact-size copy of the
// computed Response in a CachedResponse, and a hit hands out a shared_ptr to
// that same entry instead of copying its solution and diagnostic vectors.
// The Response is bit-identical to the one the original run produced
// (asserted in tests/test_batch.cpp). Each entry also carries an opaque byte
// memo that a serving front-end fills once, on the entry's first hit, with
// its own encoding of the Response (the server's JSON response element), so
// every later hit is a pointer copy plus a splice of stored bytes. Only
// entries served as hits ever hold bytes; a memo costs about 1.5x the
// entry's solution vector. JSON stays out of src/api: the encoder is passed
// in at the call site.
//
// Persistence: serialize() / deserialize() snapshot the entries (keys +
// responses, in recency order) to a versioned binary stream, so a long-lived
// server can warm its cache across restarts (src/server/, lmds_serve).

#include <cstdint>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "api/api.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace lmds::api {

/// Composite cache key; see file comment for the composition rules.
struct CacheKey {
  std::uint64_t graph_hash = 0;
  std::string solver;
  std::string options;  ///< canonical_options() of the resolved request
  std::string ns;       ///< tenant namespace; "" = default

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

/// Serializes resolved params + request flags into the canonical key string,
/// e.g. "radius1=4;radius2=4;t=5;twin_removal=true;|traffic=0;ratio=1".
/// `params` must already be resolved (Registry::resolve_options). Any
/// '=', ';', '|' or '\' inside a field is backslash-escaped, so two distinct
/// parameter maps can never serialize to the same key string — important
/// once string/enum ParamValues exist, and frozen into the snapshot format.
std::string canonical_options(const Options& params, bool measure_traffic,
                              bool measure_ratio);

/// Cumulative counters; surfaced per batch through BatchDiagnostics and for
/// the cache's lifetime through ResponseCache::stats(). A miss is counted
/// when a computed Response is inserted, not at lookup time, so hits + misses
/// always equals the number of *completed* requests even when a solve throws
/// between the failed lookup and the insert.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;      ///< entries currently held
  std::size_t capacity = 0;  ///< maximum entries (0 = caching disabled)

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// Per-namespace slice of the counters above. Capacity is shared across
/// namespaces (one LRU list), so an insert in one namespace may evict
/// another's entry — the eviction is charged to the namespace that *lost*
/// the entry, and `size` is how many entries the namespace currently holds.
struct NamespaceStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;

  friend bool operator==(const NamespaceStats&, const NamespaceStats&) = default;
};

/// One cache entry: an immutable Response shared by every hit, plus an
/// opaque byte memo of its encoding. Thread-safe: any number of threads may
/// read `response` and call memo() at once.
class CachedResponse {
 public:
  explicit CachedResponse(Response r) : response(std::move(r)) {}

  const Response response;

  /// Appends the encoding of a Response to `out`.
  using Encoder = void (*)(std::string& out, const Response& response);

  /// The bytes `encode` writes for `response`, computed by the first call
  /// (std::call_once, trimmed to size) and returned unchanged by every later
  /// one, whatever encoder it passes: one entry has one encoding. The view
  /// lives as long as the entry.
  std::string_view memo(Encoder encode) const {
    std::call_once(memo_once_, [&] {
      encode(memo_, response);
      memo_.shrink_to_fit();
    });
    return memo_;
  }

 private:
  mutable std::once_flag memo_once_;
  mutable std::string memo_;
};

/// Fixed-capacity LRU map CacheKey -> shared CachedResponse. All operations
/// take an internal mutex, so one cache may back concurrent run_batch calls.
class ResponseCache {
 public:
  /// capacity == 0 constructs a disabled cache: lookups miss without
  /// counting, inserts are dropped.
  explicit ResponseCache(std::size_t capacity);

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }

  /// Returns the cached entry itself (shared, never copied) and promotes it
  /// to most-recently-used; nullptr on miss. Counts a hit on success; a miss
  /// is counted by the insert() that completes the request.
  std::shared_ptr<const CachedResponse> lookup(const CacheKey& key) LMDS_EXCLUDES(mu_);

  /// Inserts (or refreshes) an entry holding an exact-size copy of `value`,
  /// evicting the least-recently-used one when at capacity. Counts one miss
  /// — insert() is called exactly once per computed Response, so the counter
  /// tracks completed work, not attempts. Returns true iff an entry was
  /// evicted.
  bool insert(const CacheKey& key, const Response& value) LMDS_EXCLUDES(mu_);

  CacheStats stats() const LMDS_EXCLUDES(mu_);
  /// Counters sliced by CacheKey::ns, keyed by namespace (the default
  /// namespace appears as ""). A namespace appears once it was ever touched;
  /// clear() zeroes sizes but keeps the lifetime hit/miss/eviction counters.
  /// The map is bounded: namespaces are client-supplied, so once ~1024
  /// distinct ones have been seen, the counters of namespaces currently
  /// holding no entries are pruned to make room (live namespaces are
  /// bounded by the cache capacity itself).
  std::map<std::string, NamespaceStats> namespace_stats() const LMDS_EXCLUDES(mu_);
  void clear() LMDS_EXCLUDES(mu_);

  /// Writes a versioned binary snapshot of the entries (keys + responses,
  /// least- to most-recently-used) to `out`. Counters are not part of the
  /// snapshot — they describe this process's lifetime, not the data.
  void serialize(std::ostream& out) const LMDS_EXCLUDES(mu_);

  /// Replaces the current entries with a snapshot previously written by
  /// serialize(). Accepts only the current format, version 3; versions 1
  /// and 2 are keyed by the retired graph hash and refused with an error
  /// that names their version. Recency order is preserved; if the snapshot
  /// holds more entries than this cache's capacity, only the most recent
  /// ones are kept (silently, not counted as evictions). Lifetime counters
  /// are untouched. Throws std::runtime_error on a bad magic/version or
  /// truncated stream, leaving the cache unchanged. A disabled cache
  /// ignores the snapshot.
  void deserialize(std::istream& in) LMDS_EXCLUDES(mu_);

  /// Merges a snapshot into the live entries instead of replacing them:
  /// entries whose key is already present are skipped, absent ones fill the
  /// *spare* capacity (they are queued behind every live entry in recency
  /// order, and once the cache is full the rest of the snapshot is ignored —
  /// replicated data never evicts locally-hot entries). Hit/miss/eviction
  /// counters are untouched, so peer replication cannot skew a server's
  /// observed hit rate. Same format/error behavior as deserialize().
  void merge(std::istream& in) LMDS_EXCLUDES(mu_);

  /// File convenience over serialize()/deserialize(); throws
  /// std::runtime_error when the file cannot be opened or written. A save
  /// writes and fsyncs `<path>.tmp`, then renames it over `path`, so a failed
  /// or interrupted save leaves the previous snapshot intact.
  void save_file(const std::string& path) const LMDS_EXCLUDES(save_mu_);
  void load_file(const std::string& path);

 private:
  using LruList =
      std::list<std::pair<CacheKey, std::shared_ptr<const CachedResponse>>>;  // front = MRU

  /// Evicts the least-recently-used entry, charging the eviction to the
  /// namespace losing it (capacity is shared; that need not be the
  /// inserting namespace).
  void evict_lru_locked() LMDS_REQUIRES(mu_);

  /// Keeps the client-supplied namespace counter map bounded: before `ns`
  /// would grow it past its cap, prunes the counters of namespaces that
  /// currently hold no entries.
  void prune_idle_namespaces_locked(const std::string& ns) LMDS_REQUIRES(mu_);

  /// Replaces the live entries with `entries` (already capacity-clamped,
  /// MRU-first), rebuilds the index, and recomputes per-namespace sizes —
  /// deserialize()'s commit step, after all parsing that can throw.
  void install_entries_locked(LruList entries) LMDS_REQUIRES(mu_);

  /// Parses a full snapshot stream into an MRU-first list, validating magic,
  /// version and footer. `clamp` > 0 drops the least-recent entries beyond
  /// that count while parsing; 0 keeps everything. Throws on a corrupt or
  /// truncated stream without touching any live state (it is static — the
  /// shared front half of deserialize() and merge()).
  static LruList parse_snapshot(std::istream& in, std::size_t clamp);

  const std::size_t capacity_;
  mutable common::Mutex mu_;
  LruList lru_ LMDS_GUARDED_BY(mu_);
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_
      LMDS_GUARDED_BY(mu_);
  std::uint64_t hits_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ LMDS_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ LMDS_GUARDED_BY(mu_) = 0;
  std::map<std::string, NamespaceStats> ns_stats_ LMDS_GUARDED_BY(mu_);
  /// Serializes save_file calls: concurrent saves of one path would share
  /// its `.tmp` file.
  mutable common::Mutex save_mu_;
};

}  // namespace lmds::api
