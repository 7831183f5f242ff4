#include "api/cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "graph/hash.hpp"

namespace lmds::api {

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::uint64_t h = key.graph_hash;
  for (const char c : key.solver) h = graph::mix64(h ^ static_cast<unsigned char>(c));
  for (const char c : key.options) h = graph::mix64(h ^ static_cast<unsigned char>(c));
  // Mix a separator first so ("ab", "") and ("a", "b") across the
  // options/ns boundary cannot collide trivially.
  h = graph::mix64(h ^ 0x9e3779b97f4a7c15ULL);
  for (const char c : key.ns) h = graph::mix64(h ^ static_cast<unsigned char>(c));
  return static_cast<std::size_t>(h);
}

namespace {

// Backslash-escapes the structural characters of the canonical key grammar.
// Without this, a future string-valued parameter (or a parameter *name*)
// containing '=' or ';' could make two distinct option maps serialize to the
// same key string — e.g. {"a=1;b": 2} vs {"a": 1, "b": 2}.
void append_escaped(std::string& out, std::string_view field) {
  for (const char c : field) {
    if (c == '\\' || c == '=' || c == ';' || c == '|') out += '\\';
    out += c;
  }
}

// Namespaces are client-supplied, so the per-namespace counter map must not
// grow without bound on a long-lived multi-tenant server. Counters of idle
// namespaces (no entries currently held) are pruned once the map reaches
// this size; namespaces with live entries are bounded by the cache capacity
// itself (each needs at least one entry).
constexpr std::size_t kMaxIdleNamespaceStats = 1024;

}  // namespace

std::string canonical_options(const Options& params, bool measure_traffic,
                              bool measure_ratio) {
  std::string out;
  for (const auto& [name, value] : params) {  // std::map: sorted, canonical
    append_escaped(out, name);
    out += '=';
    append_escaped(out, value.to_string());
    out += ';';
  }
  out += "|traffic=";
  out += measure_traffic ? '1' : '0';
  out += ";ratio=";
  out += measure_ratio ? '1' : '0';
  return out;
}

ResponseCache::ResponseCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const CachedResponse> ResponseCache::lookup(const CacheKey& key) {
  if (!enabled()) return nullptr;
  common::MutexLock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;  // the completing insert() counts the miss
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  ++hits_;
  ++ns_stats_[key.ns].hits;
  return it->second->second;
}

void ResponseCache::evict_lru_locked() {
  NamespaceStats& loser = ns_stats_[lru_.back().first.ns];
  ++loser.evictions;
  --loser.size;
  index_.erase(lru_.back().first);
  lru_.pop_back();
  ++evictions_;
}

void ResponseCache::prune_idle_namespaces_locked(const std::string& ns) {
  if (ns_stats_.size() >= kMaxIdleNamespaceStats && !ns_stats_.contains(ns)) {
    // A fresh namespace would push the counter map past its bound: drop the
    // counters of namespaces holding no entries (their history, not their
    // data — the entries of live namespaces are never touched).
    std::erase_if(ns_stats_, [](const auto& kv) { return kv.second.size == 0; });
  }
}

bool ResponseCache::insert(const CacheKey& key, const Response& value) {
  if (!enabled()) return false;
  common::MutexLock lock(mu_);
  ++misses_;  // one computed Response reached the cache — the request's miss
  prune_idle_namespaces_locked(key.ns);
  ++ns_stats_[key.ns].misses;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent workers may compute the same entry; keep the first, just
    // refresh recency — the Responses are identical by determinism.
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  const bool evict = lru_.size() >= capacity_;
  if (evict) evict_lru_locked();
  // A copy, not the caller's Response: its vectors are sized exactly, where a
  // freshly computed solution may carry spare capacity.
  lru_.emplace_front(key, std::make_shared<const CachedResponse>(value));
  index_[key] = lru_.begin();
  ++ns_stats_[key.ns].size;
  return evict;
}

CacheStats ResponseCache::stats() const {
  common::MutexLock lock(mu_);
  return {hits_, misses_, evictions_, lru_.size(), capacity_};
}

std::map<std::string, NamespaceStats> ResponseCache::namespace_stats() const {
  common::MutexLock lock(mu_);
  return ns_stats_;
}

void ResponseCache::clear() {
  common::MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
  for (auto& [ns, stats] : ns_stats_) stats.size = 0;
}

// ---------------------------------------------------------------------------
// Snapshot format (little-endian, version 2):
//
//   magic   "LMDSCACH"                       8 bytes
//   version u32                              = 2
//   count   u64
//   count entries, least- to most-recently-used:
//     CacheKey   { graph_hash u64, solver str, options str, ns str }
//                (version 1 lacked the ns str; deserialize() still reads
//                 such snapshots and places the entries in namespace "")
//     Response   { solver str, problem u8, solution vec<i32>, valid u8,
//                  ratio { size i32, reference i32, exact u8, ratio f64 },
//                  ratio_measured u8,
//                  diag { rounds i32,
//                         traffic { rounds i32, messages u64, bytes u64 },
//                         traffic_measured u8, twin_classes i32,
//                         one_cuts vec<i32>, two_cut_vertices vec<i32>,
//                         brute_forced vec<i32>,
//                         residual_components i32,
//                         max_residual_diameter i32 } }
//   footer  u64 = kFooter
//
// str = u32 length + bytes; vec<i32> = u32 count + i32 each; f64 = IEEE bits
// as u64. The footer catches truncation: a snapshot cut anywhere fails the
// footer read (or an inner read) and deserialize() throws without touching
// the live entries. Byte memos (CachedResponse::memo) are never written: a
// loaded entry encodes again on its first hit.

namespace {

constexpr char kMagic[8] = {'L', 'M', 'D', 'S', 'C', 'A', 'C', 'H'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kVersionPreNamespace = 1;  // still readable
constexpr std::uint64_t kFooter = 0x4C4D44534E415053ULL;  // "LMDSNAPS"

void put_bytes(std::ostream& out, const void* p, std::size_t n) {
  out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void put_u8(std::ostream& out, std::uint8_t v) { put_bytes(out, &v, 1); }

void put_u32(std::ostream& out, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  put_bytes(out, b, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  put_bytes(out, b, 8);
}

void put_i32(std::ostream& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::ostream& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_str(std::ostream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

void put_vertices(std::ostream& out, const std::vector<Vertex>& vs) {
  put_u32(out, static_cast<std::uint32_t>(vs.size()));
  for (const Vertex v : vs) put_i32(out, v);
}

[[noreturn]] void truncated() {
  throw std::runtime_error("cache snapshot: truncated or corrupt stream");
}

void get_bytes(std::istream& in, void* p, std::size_t n) {
  in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) truncated();
}

std::uint8_t get_u8(std::istream& in) {
  std::uint8_t v;
  get_bytes(in, &v, 1);
  return v;
}

std::uint32_t get_u32(std::istream& in) {
  std::uint8_t b[4];
  get_bytes(in, b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  std::uint8_t b[8];
  get_bytes(in, b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::int32_t get_i32(std::istream& in) { return static_cast<std::int32_t>(get_u32(in)); }

double get_f64(std::istream& in) { return std::bit_cast<double>(get_u64(in)); }

// Length prefixes in a corrupt snapshot are attacker/garbage-controlled, so
// the readers below never allocate a declared length up front — they grow
// with the bytes actually present, and a truncated stream throws after
// consuming only what existed. (A long-but-corrupt stream is bounded by its
// own size, which the operator chose to load.)
constexpr std::uint32_t kReadChunk = 1u << 16;

std::string get_str(std::istream& in) {
  std::uint32_t n = get_u32(in);
  std::string s;
  char buf[kReadChunk];
  while (n > 0) {
    const std::uint32_t take = std::min(n, kReadChunk);
    get_bytes(in, buf, take);
    s.append(buf, take);
    n -= take;
  }
  return s;
}

std::vector<Vertex> get_vertices(std::istream& in) {
  const std::uint32_t n = get_u32(in);
  std::vector<Vertex> vs;
  vs.reserve(std::min(n, kReadChunk));
  for (std::uint32_t i = 0; i < n; ++i) vs.push_back(get_i32(in));
  return vs;
}

void put_response(std::ostream& out, const Response& r) {
  put_str(out, r.solver);
  put_u8(out, r.problem == Problem::Mds ? 0 : 1);
  put_vertices(out, r.solution);
  put_u8(out, r.valid ? 1 : 0);
  put_i32(out, r.ratio.solution_size);
  put_i32(out, r.ratio.reference);
  put_u8(out, r.ratio.exact ? 1 : 0);
  put_f64(out, r.ratio.ratio);
  put_u8(out, r.ratio_measured ? 1 : 0);
  put_i32(out, r.diag.rounds);
  put_i32(out, r.diag.traffic.rounds);
  put_u64(out, r.diag.traffic.messages);
  put_u64(out, r.diag.traffic.bytes);
  put_u8(out, r.diag.traffic_measured ? 1 : 0);
  put_i32(out, r.diag.twin_classes);
  put_vertices(out, r.diag.one_cuts);
  put_vertices(out, r.diag.two_cut_vertices);
  put_vertices(out, r.diag.brute_forced);
  put_i32(out, r.diag.residual_components);
  put_i32(out, r.diag.max_residual_diameter);
}

Response get_response(std::istream& in) {
  Response r;
  r.solver = get_str(in);
  r.problem = get_u8(in) == 0 ? Problem::Mds : Problem::Mvc;
  r.solution = get_vertices(in);
  r.valid = get_u8(in) != 0;
  r.ratio.solution_size = get_i32(in);
  r.ratio.reference = get_i32(in);
  r.ratio.exact = get_u8(in) != 0;
  r.ratio.ratio = get_f64(in);
  r.ratio_measured = get_u8(in) != 0;
  r.diag.rounds = get_i32(in);
  r.diag.traffic.rounds = get_i32(in);
  r.diag.traffic.messages = get_u64(in);
  r.diag.traffic.bytes = get_u64(in);
  r.diag.traffic_measured = get_u8(in) != 0;
  r.diag.twin_classes = get_i32(in);
  r.diag.one_cuts = get_vertices(in);
  r.diag.two_cut_vertices = get_vertices(in);
  r.diag.brute_forced = get_vertices(in);
  r.diag.residual_components = get_i32(in);
  r.diag.max_residual_diameter = get_i32(in);
  return r;
}

}  // namespace

void ResponseCache::serialize(std::ostream& out) const {
  common::MutexLock lock(mu_);
  put_bytes(out, kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u64(out, lru_.size());
  // Back-to-front = LRU first, so replaying the stream through ordered
  // inserts reproduces the recency order exactly.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    put_u64(out, it->first.graph_hash);
    put_str(out, it->first.solver);
    put_str(out, it->first.options);
    put_str(out, it->first.ns);
    put_response(out, it->second->response);
  }
  put_u64(out, kFooter);
  if (!out) throw std::runtime_error("cache snapshot: stream write failed");
}

ResponseCache::LruList ResponseCache::parse_snapshot(std::istream& in,
                                                     std::size_t clamp) {
  char magic[8];
  get_bytes(in, magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("cache snapshot: bad magic (not a snapshot file)");
  }
  const std::uint32_t version = get_u32(in);
  if (version != kVersion && version != kVersionPreNamespace) {
    throw std::runtime_error("cache snapshot: unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t count = get_u64(in);

  // Parse the whole snapshot before touching live state: a truncation throws
  // from here and the caller's cache is left exactly as it was.
  LruList entries;  // built MRU-first, i.e. in final list order
  for (std::uint64_t i = 0; i < count; ++i) {
    CacheKey key;
    key.graph_hash = get_u64(in);
    key.solver = get_str(in);
    key.options = get_str(in);
    // Version 1 predates namespaces; its entries belong to the default one.
    key.ns = version >= kVersion ? get_str(in) : std::string();
    entries.emplace_front(std::move(key),
                          std::make_shared<const CachedResponse>(get_response(in)));
    if (clamp > 0 && entries.size() > clamp) entries.pop_back();  // drop oldest
  }
  if (get_u64(in) != kFooter) truncated();
  return entries;
}

void ResponseCache::deserialize(std::istream& in) {
  LruList entries = parse_snapshot(in, enabled() ? capacity_ : 0);
  if (!enabled()) return;

  common::MutexLock lock(mu_);
  install_entries_locked(std::move(entries));
}

void ResponseCache::merge(std::istream& in) {
  LruList entries = parse_snapshot(in, enabled() ? capacity_ : 0);
  if (!enabled()) return;

  common::MutexLock lock(mu_);
  // MRU-first traversal + push_back keeps the snapshot's relative recency
  // while queueing every merged entry behind the live ones; once full, the
  // remaining (older) snapshot entries are dropped rather than evicting
  // anything the server already holds.
  for (auto& [key, value] : entries) {
    if (lru_.size() >= capacity_) break;
    if (index_.contains(key)) continue;
    prune_idle_namespaces_locked(key.ns);
    ++ns_stats_[key.ns].size;
    lru_.emplace_back(std::move(key), std::move(value));
    index_[lru_.back().first] = std::prev(lru_.end());
  }
}

void ResponseCache::install_entries_locked(LruList entries) {
  lru_ = std::move(entries);
  index_.clear();
  for (auto it = lru_.begin(); it != lru_.end();) {
    // Front-to-back is most- to least-recent; on a (corrupt) duplicate key
    // keep the more recent copy so list and index stay consistent.
    if (index_.emplace(it->first, it).second) {
      ++it;
    } else {
      it = lru_.erase(it);
    }
  }
  // Per-namespace sizes describe the entries just loaded; the hit/miss
  // counters stay lifetime-of-this-process, like the global ones.
  for (auto& [ns, stats] : ns_stats_) stats.size = 0;
  for (const auto& [key, value] : lru_) ++ns_stats_[key.ns].size;
}

void ResponseCache::save_file(const std::string& path) const {
  // Write <path>.tmp, fsync it, then rename it over <path>: rename is
  // atomic, so a crash or a full disk mid-save leaves the previous snapshot
  // in place.
  common::MutexLock lock(save_mu_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cache snapshot: cannot write " + tmp);
    serialize(out);
    out.close();
    if (!out) {
      ::unlink(tmp.c_str());
      throw std::runtime_error("cache snapshot: write to " + tmp + " failed");
    }
  }
  // fsync needs a descriptor; any descriptor of the file flushes its data.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CLOEXEC);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("cache snapshot: cannot replace " + path);
  }
}

void ResponseCache::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cache snapshot: cannot open " + path);
  deserialize(in);
}

}  // namespace lmds::api
