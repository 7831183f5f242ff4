#include "api/graph_store.hpp"

#include <algorithm>

#include "graph/hash.hpp"

namespace lmds::api {

namespace {

GraphStore::PutResult put_result(std::uint64_t hash, const graph::Graph& g) {
  return {.handle = GraphStore::handle_for(hash),
          .hash = hash,
          .vertices = g.num_vertices(),
          .edges = g.num_edges()};
}

}  // namespace

GraphStore::GraphStore(const StoreOptions& opts) : opts_(opts) {}

std::string GraphStore::handle_for(std::uint64_t hash) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "g";
  for (int shift = 60; shift >= 0; shift -= 4) out += kHex[(hash >> shift) & 0xF];
  return out;
}

std::optional<std::uint64_t> GraphStore::parse_handle(std::string_view handle) {
  if (handle.size() != 17 || handle.front() != 'g') return std::nullopt;
  std::uint64_t hash = 0;
  for (const char c : handle.substr(1)) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return std::nullopt;  // uppercase deliberately rejected: one spelling
    }
    hash = (hash << 4) | static_cast<std::uint64_t>(digit);
  }
  return hash;
}

void GraphStore::evict_unpinned_locked() {
  // Least-recently-used first, but skip entries that are still the parent of
  // a stored derived handle: evicting one would sever the child's lineage
  // chain while the child stays resolvable (regression-tested in
  // tests/test_patch.cpp).
  for (auto lru = unpinned_.rbegin(); lru != unpinned_.rend(); ++lru) {
    const auto it = entries_.find(*lru);
    if (it->second.child_refs > 0) continue;
    unpinned_.erase(std::next(lru).base());
    erase_entry_locked(it);
    ++evictions_;
    return;
  }
  throw GraphStoreFull("graph store full: " + std::to_string(entries_.size()) +
                       " graphs stored, all pinned or parents of derived handles "
                       "(drop_graph frees capacity)");
}

void GraphStore::erase_entry_locked(std::unordered_map<std::uint64_t, Entry>::iterator it) {
  if (const auto& lin = it->second.lineage) {
    // The erased entry releases its own claim on its parent. A guard
    // against 0 keeps a re-put parent (evicted and later re-inserted,
    // never re-claimed) from going negative.
    const auto parent_it = entries_.find(lin->parent_hash);
    if (parent_it != entries_.end() && parent_it->second.child_refs > 0) {
      --parent_it->second.child_refs;
    }
  }
  uncharge_namespace_locked(it->second.ns, it->second.bytes);
  entries_.erase(it);
}

void GraphStore::charge_namespace_locked(const std::string& ns, std::uint64_t bytes) {
  const auto current = [&] {
    const auto it = ns_bytes_.find(ns);
    return it == ns_bytes_.end() ? std::uint64_t{0} : it->second;
  };
  if (opts_.max_namespace_bytes != 0) {
    // Over quota: reclaim this namespace's OWN unpinned entries (LRU first)
    // before rejecting, so "drop_graph then retry" always works. Another
    // namespace's data is never touched, and pinned entries never silently
    // vanish — if reclaiming cannot make room, the put is refused.
    while (current() + bytes > opts_.max_namespace_bytes) {
      auto lru = unpinned_.rbegin();
      for (; lru != unpinned_.rend(); ++lru) {
        const auto it = entries_.find(*lru);
        if (it->second.ns == ns && it->second.child_refs == 0) break;
      }
      if (lru == unpinned_.rend()) break;  // nothing of ours left to free
      const auto it = entries_.find(*lru);
      unpinned_.erase(std::next(lru).base());
      erase_entry_locked(it);
      ++evictions_;
    }
    if (current() + bytes > opts_.max_namespace_bytes) {
      ++quota_rejections_;
      throw GraphStoreFull("namespace \"" + ns + "\" graph-store quota exceeded: " +
                           std::to_string(current()) + " + " + std::to_string(bytes) +
                           " bytes > limit " + std::to_string(opts_.max_namespace_bytes) +
                           " (drop_graph frees quota)");
    }
  }
  ns_bytes_[ns] += bytes;
}

void GraphStore::uncharge_namespace_locked(const std::string& ns, std::uint64_t bytes) {
  const auto it = ns_bytes_.find(ns);
  if (it == ns_bytes_.end()) return;
  it->second = it->second > bytes ? it->second - bytes : 0;
  // Erase at zero so the map stays bounded by live entries, not by every
  // client-supplied tag ever seen.
  if (it->second == 0) ns_bytes_.erase(it);
}

void GraphStore::touch_locked(Entry& entry, SessionId session) {
  if (entry.refs == 0) {
    // Keep a live-but-unpinned graph from being the next eviction victim.
    unpinned_.splice(unpinned_.begin(), unpinned_, entry.lru_it);
    return;
  }
  if (session == kSharedSession || opts_.lease_ttl.count() <= 0) return;
  if (const auto lease_it = entry.leases.find(session); lease_it != entry.leases.end()) {
    lease_it->second.deadline = std::chrono::steady_clock::now() + opts_.lease_ttl;
  }
}

void GraphStore::pin_locked(Entry& entry, SessionId session) {
  if (entry.refs++ == 0) unpinned_.erase(entry.lru_it);
  ++entry.leases[session].count;
  touch_locked(entry, session);
}

std::size_t GraphStore::expire_leases_locked() {
  if (opts_.lease_ttl.count() <= 0) return 0;
  const auto now = std::chrono::steady_clock::now();
  std::size_t released = 0;
  for (auto& [hash, entry] : entries_) {
    // refs == 0 implies no leases (they are erased as they empty), so an
    // already-unpinned entry cannot be double-inserted into unpinned_.
    if (entry.refs == 0) continue;
    for (auto lease_it = entry.leases.begin(); lease_it != entry.leases.end();) {
      if (lease_it->first == kSharedSession || lease_it->second.deadline >= now) {
        ++lease_it;
        continue;
      }
      released += static_cast<std::size_t>(lease_it->second.count);
      entry.refs -= lease_it->second.count;
      lease_it = entry.leases.erase(lease_it);
    }
    if (entry.refs == 0) {
      unpinned_.push_front(hash);
      entry.lru_it = unpinned_.begin();
    }
  }
  lease_expiries_ += released;
  return released;
}

bool GraphStore::store(graph::Graph&& g, std::uint64_t hash, std::optional<SessionId> owner,
                       std::string_view ns, std::shared_ptr<const PatchLineage>&& lineage) {
  // One handle names one graph: a hit is compared with `g`, O(V + E), before
  // any reuse, and a different graph under the same 64 bits is refused. The
  // compare runs unlocked against `compared`, a copy of the entry's
  // shared_ptr; the entry is reused only if it still holds that graph once
  // the mutex is retaken (the copy keeps its address from being reused),
  // else the store starts over against whatever the hash holds then.
  std::shared_ptr<const graph::Graph> compared;
  for (;;) {
    std::shared_ptr<const graph::Graph> stored;
    {
      common::MutexLock lock(mu_);
      if (!compared) expire_leases_locked();
      const auto it = entries_.find(hash);
      if (it == entries_.end()) {
        insert_locked(std::move(g), hash, owner, ns, std::move(lineage));
        return true;
      }
      if (it->second.graph == compared) {
        // Content-addressed reuse: the caller keeps (and frees, after
        // unlocking) its copy. An owner re-pins the entry; a replica only
        // promotes it.
        if (owner) {
          pin_locked(it->second, *owner);
        } else {
          touch_locked(it->second, kSharedSession);
        }
        ++reuses_;
        return false;
      }
      stored = it->second.graph;
    }
    if (*stored != g) {
      common::MutexLock lock(mu_);
      ++hash_collisions_;
      throw HashCollision("graph hash collision: handle \"" + handle_for(hash) +
                          "\" already names a different graph");
    }
    compared = std::move(stored);
  }
}

void GraphStore::insert_locked(graph::Graph&& g, std::uint64_t hash,
                               std::optional<SessionId> owner, std::string_view ns,
                               std::shared_ptr<const PatchLineage>&& lineage) {
  if (entries_.size() >= opts_.capacity) evict_unpinned_locked();
  // Quota after eviction: freeing an unrelated namespace's LRU entry first
  // is harmless, and this order never leaves charged bytes without an entry.
  const std::uint64_t bytes = approx_bytes(g.num_vertices(), g.num_edges());
  charge_namespace_locked(std::string(ns), bytes);
  Entry& entry = entries_[hash];
  entry.graph = std::make_shared<const graph::Graph>(std::move(g));
  entry.lineage = std::move(lineage);
  entry.ns = std::string(ns);
  entry.bytes = bytes;
  unpinned_.push_front(hash);
  entry.lru_it = unpinned_.begin();
  if (owner) pin_locked(entry, *owner);
  if (!entry.lineage) {
    ++puts_;
    return;
  }
  // Eviction protection for the parent — if its entry still exists. (It may
  // have been dropped and evicted since patch() read it; the lineage's
  // shared_ptr alone then keeps the parent graph alive.)
  if (const auto parent_it = entries_.find(entry.lineage->parent_hash);
      parent_it != entries_.end()) {
    ++parent_it->second.child_refs;
  }
  ++patches_;
}

GraphStore::PutResult GraphStore::put(graph::Graph g, SessionId session, std::string_view ns) {
  const std::uint64_t hash = graph::graph_hash(g);
  return put_hashed(std::move(g), hash, session, ns);
}

GraphStore::PutResult GraphStore::put_hashed(graph::Graph g, std::uint64_t hash,
                                             SessionId session, std::string_view ns) {
  PutResult out = put_result(hash, g);
  out.inserted = store(std::move(g), hash, session, ns, nullptr);
  return out;
}

GraphStore::PutResult GraphStore::put_replica(graph::Graph g, std::uint64_t hash,
                                              std::string_view ns) {
  // Already present is the common replication case (handles are globally
  // stable). Nobody owns a replica, so it is stored or promoted unpinned.
  PutResult out = put_result(hash, g);
  out.inserted = store(std::move(g), hash, std::nullopt, ns, nullptr);
  return out;
}

GraphStore::PatchResult GraphStore::patch(std::string_view handle, const graph::GraphPatch& p,
                                          SessionId session, std::string_view ns) {
  const std::optional<std::uint64_t> parent_hash = parse_handle(handle);
  std::shared_ptr<const graph::Graph> parent;
  if (parent_hash) {
    common::MutexLock lock(mu_);
    if (const auto it = entries_.find(*parent_hash); it != entries_.end()) {
      touch_locked(it->second, session);  // patching through a handle is a touch
      parent = it->second.graph;
    }
  }
  if (!parent) {
    throw UnknownGraphHandle("unknown graph handle \"" + std::string(handle) + "\"");
  }

  // Apply outside the lock — it copies O(n + m) words. The parent graph is
  // pinned by our shared_ptr even if it is concurrently dropped and evicted.
  // The child's hash is the parent's plus the edit's terms, O(edit).
  graph::PatchedGraph patched = graph::apply_patch(*parent, p);
  const std::uint64_t child_hash =
      graph::patched_hash(*parent_hash, parent->num_vertices(),
                          patched.graph.num_vertices(), patched.added, patched.removed);
  PatchResult out{.put = put_result(child_hash, patched.graph), .parent = std::string(handle)};
  std::shared_ptr<const PatchLineage> lineage =
      std::make_shared<PatchLineage>(PatchLineage{.parent = std::move(parent),
                                                  .parent_hash = *parent_hash,
                                                  .added = std::move(patched.added),
                                                  .removed = std::move(patched.removed)});

  // A hit (the no-op patch's child is the parent itself) re-pins the stored
  // entry and keeps its original lineage.
  out.put.inserted =
      store(std::move(patched.graph), child_hash, session, ns, std::move(lineage));
  return out;
}

std::shared_ptr<const PatchLineage> GraphStore::lineage(std::string_view handle) const {
  const std::optional<std::uint64_t> hash = parse_handle(handle);
  if (!hash) return nullptr;
  common::MutexLock lock(mu_);
  const auto it = entries_.find(*hash);
  return it == entries_.end() ? nullptr : it->second.lineage;
}

std::shared_ptr<const graph::Graph> GraphStore::get(std::string_view handle,
                                                    SessionId session) {
  const std::optional<std::uint64_t> hash = parse_handle(handle);
  if (!hash) return nullptr;
  common::MutexLock lock(mu_);
  const auto it = entries_.find(*hash);
  if (it == entries_.end()) return nullptr;
  // Solving by handle is a touch, so an active client's pins never expire
  // under it.
  touch_locked(it->second, session);
  return it->second.graph;
}

bool GraphStore::drop(std::string_view handle, SessionId session) {
  const std::optional<std::uint64_t> hash = parse_handle(handle);
  if (!hash) return false;
  common::MutexLock lock(mu_);
  const auto it = entries_.find(*hash);
  if (it == entries_.end()) return false;
  // Ownership-safe: only a session holding a lease may release a pin, and
  // only its own. (refs == 0 means nobody holds anything — the entry merely
  // lingers as an evictable cache line.)
  const auto lease_it = it->second.leases.find(session);
  if (it->second.refs == 0 || lease_it == it->second.leases.end()) return false;
  ++drops_;
  if (--lease_it->second.count == 0) it->second.leases.erase(lease_it);
  if (--it->second.refs == 0) {
    // Last reference released: the entry lingers as an evictable LRU line
    // (a re-put of the same graph is free until capacity reclaims it).
    unpinned_.push_front(*hash);
    it->second.lru_it = unpinned_.begin();
  }
  return true;
}

std::size_t GraphStore::release_session(SessionId session) {
  if (session == kSharedSession) return 0;
  common::MutexLock lock(mu_);
  std::size_t released = 0;
  for (auto& [hash, entry] : entries_) {
    const auto lease_it = entry.leases.find(session);
    if (lease_it == entry.leases.end()) continue;
    released += static_cast<std::size_t>(lease_it->second.count);
    entry.refs -= lease_it->second.count;
    entry.leases.erase(lease_it);
    if (entry.refs == 0) {
      unpinned_.push_front(hash);
      entry.lru_it = unpinned_.begin();
    }
  }
  return released;
}

std::size_t GraphStore::expire_leases() {
  common::MutexLock lock(mu_);
  return expire_leases_locked();
}

std::vector<std::pair<std::string, std::shared_ptr<const graph::Graph>>>
GraphStore::snapshot_graphs() const {
  common::MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const graph::Graph>>> out;
  out.reserve(entries_.size());
  for (const auto& [hash, entry] : entries_) {
    out.emplace_back(handle_for(hash), entry.graph);
  }
  return out;
}

GraphStoreStats GraphStore::stats() const {
  common::MutexLock lock(mu_);
  GraphStoreStats s;
  s.puts = puts_;
  s.patches = patches_;
  s.reuses = reuses_;
  s.drops = drops_;
  s.evictions = evictions_;
  s.lease_expiries = lease_expiries_;
  s.quota_rejections = quota_rejections_;
  s.hash_collisions = hash_collisions_;
  s.size = entries_.size();
  s.pinned = entries_.size() - unpinned_.size();
  s.capacity = opts_.capacity;
  s.namespace_bytes = ns_bytes_;
  for (const auto& [hash, entry] : entries_) {
    for (const auto& [session, lease] : entry.leases) {
      s.session_pins[session] += static_cast<std::uint64_t>(lease.count);
    }
  }
  return s;
}

}  // namespace lmds::api
