#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>

#include "api/graph_store.hpp"
#include "common/parallel.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"

namespace lmds::cluster {

namespace {

using server::ErrorCode;
using server::JsonValue;

// The failure policy. The I/O timeout is generous because a worker solve can
// be slow; a dead worker still fails in finite time.
constexpr int kConnectTimeoutMs = 5000;
constexpr int kIoTimeoutMs = 60000;
constexpr int kBackoffMs = 25;  ///< first busy backoff; grows linearly per attempt
constexpr std::size_t kMaxLocations = std::size_t{1} << 20;  ///< child-handle map bound

/// Splits "host:port" or throws std::invalid_argument.
std::pair<std::string, int> parse_peer(const std::string& peer) {
  std::optional<std::pair<std::string, int>> parsed = server::parse_host_port(peer);
  if (!parsed) throw std::invalid_argument("peer must be host:port, got \"" + peer + "\"");
  return *std::move(parsed);
}

/// Folds one worker sub-batch's diagnostics into the routed batch's:
/// concurrency highs are maxed, work counters summed.
void merge_diag(api::BatchDiagnostics& out, const api::BatchDiagnostics& in) {
  out.threads = std::max(out.threads, in.threads);
  out.intra_threads = std::max(out.intra_threads, in.intra_threads);
  out.shards += in.shards;
  out.stolen_shards += in.stolen_shards;
  out.cache_hits += in.cache_hits;
  out.cache_misses += in.cache_misses;
  out.cache_evictions += in.cache_evictions;
  out.incremental_solves += in.incremental_solves;
  out.incremental_fallbacks += in.incremental_fallbacks;
  out.incremental_dirty += in.incremental_dirty;
}

/// A request line for a worker, kept as the pieces it is sent as: views of
/// the client's graph-slot bytes, which outlive it, between runs of bytes it
/// writes itself (its head, separators, re-quoted handles and tail).
class GatheredLine {
 public:
  /// The bytes the line owns; appending to them appends to the line.
  std::string& own() { return own_; }

  /// Appends `v` as json_dump writes it: a Raw graph slot as a view of its
  /// bytes, anything else encoded into the line's own bytes.
  void append(const JsonValue& v) {
    if (v.type() == JsonValue::Type::Raw) {
      views_.push_back({own_.size(), v.raw_text()});
    } else {
      server::json_dump_to(own_, v);
    }
  }

  /// The line as pieces in order, valid while the line and the views'
  /// bytes are unchanged.
  std::vector<std::string_view> pieces() const {
    std::vector<std::string_view> out;
    out.reserve(2 * views_.size() + 1);
    const std::string_view own = own_;
    std::size_t done = 0;
    for (const auto& [at, view] : views_) {
      if (at > done) out.push_back(own.substr(done, at - done));
      out.push_back(view);
      done = at;
    }
    if (own.size() > done) out.push_back(own.substr(done));
    return out;
  }

 private:
  std::string own_;
  /// Each view with the size of own_ when it was appended (where it goes).
  std::vector<std::pair<std::size_t, std::string_view>> views_;
};

/// One sub-batch: the slots of the client batch owned by one peer.
struct SubBatch {
  std::size_t peer = 0;
  std::vector<std::size_t> slots;
  std::uint64_t rep_hash = 0;  ///< first slot's fingerprint (failover order)
  bool has_handle = false;     ///< store-bound: cannot fail over
  GatheredLine line;           ///< the sub-request line, newline included
};

/// Finishes a request line for a worker: `line` holds '{' and the
/// pre-encoded members ("op" first); appends every member of `root` not
/// named in `replaced`, the closing brace and the newline. Raw graph slots
/// go in as views of the client's bytes, so no graph is re-encoded or
/// copied.
void finish_line(GatheredLine& line, const JsonValue& root,
                 std::initializer_list<std::string_view> replaced) {
  for (const auto& [key, value] : root.as_object()) {
    if (std::find(replaced.begin(), replaced.end(), key) != replaced.end()) continue;
    line.own() += ',';
    server::json_append_string(line.own(), key);
    line.own() += ':';
    line.append(value);
  }
  line.own() += "}\n";
}

/// The line of a store verb forwarded as the client sent it, op first.
GatheredLine store_verb_line(std::string_view op, const JsonValue& root) {
  GatheredLine line;
  line.own() += "{\"op\":";
  server::json_append_string(line.own(), op);
  finish_line(line, root, {"op"});
  return line;
}

}  // namespace

std::optional<std::vector<std::string_view>> split_raw_responses(std::string_view line,
                                                                std::string_view* tail) {
  if (!line.starts_with(server::kSolveHead)) return std::nullopt;
  std::vector<std::string_view> out;
  std::size_t i = server::kSolveHead.size();
  if (i < line.size() && line[i] == ']') {  // empty batch
    if (tail) *tail = line.substr(i + 1);
    return out;
  }
  while (i < line.size()) {
    // One array element: scan to its end with string- and escape-aware
    // depth tracking ('[' ']' '{' '}' inside JSON strings must not count).
    const std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') {
          ++i;  // skip the escaped character (also keeps \" from closing)
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;  // the array's own closing ']'
        --depth;
      } else if (c == ',' && depth == 0) {
        break;  // between elements
      }
    }
    if (i >= line.size() || depth != 0 || in_string) return std::nullopt;
    out.push_back(line.substr(start, i - start));
    if (line[i] == ']') {  // done; the tail (diag etc.) follows
      if (tail) *tail = line.substr(i + 1);
      return out;
    }
    ++i;                             // past the ','
  }
  return std::nullopt;  // ran off the end without the closing ']'
}

Router::Router(RouterOptions opts, server::ServerCore& core)
    : opts_(std::move(opts)),
      core_(core),
      ring_(opts_.peers),
      pool_(opts_.peers.size()),
      control_(opts_.peers.size()) {
  for (const std::string& peer : opts_.peers) (void)parse_peer(peer);  // validate early
  forwards_.reserve(opts_.peers.size());
  for (std::size_t i = 0; i < opts_.peers.size(); ++i) {
    forwards_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

void Router::install() {
  core_.set_dispatch_override(
      [this](server::Session& session, std::string_view verb, const JsonValue& root) {
        return route(session, verb, root);
      });
}

Router::ClientPtr Router::acquire(std::size_t peer) {
  common::MutexLock lock(pool_mu_);
  if (pool_[peer].empty()) return nullptr;  // exchange() dials, outside the lock
  ClientPtr client = std::move(pool_[peer].back());
  pool_[peer].pop_back();
  return client;
}

void Router::release(std::size_t peer, ClientPtr client) {
  common::MutexLock lock(pool_mu_);
  pool_[peer].push_back(std::move(client));
}

std::string Router::exchange(std::size_t peer, ClientPtr& client,
                             std::span<const std::string_view> line) {
  if (!client) {
    const auto [host, port] = parse_peer(opts_.peers[peer]);
    // Line protocol, default namespace: solve sub-requests carry their
    // namespace explicitly.
    client = std::make_unique<server::ProtocolClient>(
        host, port, /*http=*/false, /*ns=*/"",
        server::ClientOptions{.connect_timeout_ms = kConnectTimeoutMs,
                              .io_timeout_ms = kIoTimeoutMs});
  }
  forwards_[peer]->fetch_add(1, std::memory_order_relaxed);
  std::optional<std::string> response;
  if (client->send_raw(line)) response = client->read_raw_line();
  if (!response) {
    // A reset control connection is re-dialed by the next verb, which starts
    // a fresh worker-side session and releases the old one's pins (the
    // graphs stay in the store, unpinned).
    client.reset();
    throw std::runtime_error("peer " + opts_.peers[peer] +
                             " closed the connection before responding");
  }
  return *std::move(response);
}

std::string Router::forward(const std::vector<std::size_t>& preference, bool can_fail_over,
                            bool control, std::span<const std::string_view> line) {
  const std::size_t tries = can_fail_over ? preference.size() : 1;
  std::string last_busy;
  std::string last_error;
  for (std::size_t p = 0; p < tries; ++p) {
    const std::size_t peer = preference[p];
    for (int attempt = 0; attempt <= kBusyRetries; ++attempt) {
      if (attempt > 0) {
        // Linear backoff: busy means admission control said no, and
        // hammering an over-quota namespace just burns the quota window.
        std::this_thread::sleep_for(std::chrono::milliseconds(kBackoffMs * attempt));
      }
      std::string response;
      try {
        if (control) {
          common::MutexLock lock(control_mu_);
          response = exchange(peer, control_[peer], line);
        } else {
          // Only a clean round trip returns the connection to the pool.
          ClientPtr client = acquire(peer);
          response = exchange(peer, client, line);
          release(peer, std::move(client));
        }
      } catch (const std::exception& e) {
        last_error = e.what();
        break;  // connection trouble: next peer (or give up)
      }
      if (server::error_code_of(response) != ErrorCode::ServerBusy) return response;
      last_busy = std::move(response);
    }
  }
  // Busy everywhere beats a connection error: the client should retry, not
  // conclude the cluster is down.
  if (!last_busy.empty()) return last_busy;
  return server::encode_error(ErrorCode::IoError, "no cluster peer answered: " + last_error);
}

std::optional<std::string> Router::route(server::Session& session, std::string_view verb,
                                         const JsonValue& root) {
  if (root.type() != JsonValue::Type::Object) return std::nullopt;
  if (verb == "solve") return route_solve(session, root);
  if (verb == "put_graph") return route_put(root);
  if (verb == "patch_graph") return route_patch(root);
  if (verb == "drop_graph") return route_drop(root);
  if (verb == "stats") return route_stats(session, root);
  return std::nullopt;  // solvers/open_session/replicate_*/... stay local
}

std::size_t Router::locate_handle(const std::string& handle, std::uint64_t hash) {
  {
    common::MutexLock lock(loc_mu_);
    const auto it = locations_.find(handle);
    if (it != locations_.end()) return it->second;
  }
  return ring_.owner_index(hash);
}

void Router::record_location(const std::string& handle, std::size_t peer) {
  common::MutexLock lock(loc_mu_);
  if (locations_.size() >= kMaxLocations && !locations_.contains(handle)) {
    // Arbitrary eviction keeps the map bounded; a dropped entry only costs
    // a ring-directed lookup that may answer unknown_handle — exactly what
    // an over-capacity single server answers.
    locations_.erase(locations_.begin());
  }
  locations_.insert_or_assign(handle, peer);
}

std::optional<std::string> Router::route_solve(server::Session& session,
                                               const JsonValue& root) {
  // The decoder Session::do_solve runs. A request it refuses falls through
  // to local dispatch, which runs it again and writes the same error line.
  // A canonically ordered inline slot is checked and hashed without a CSR.
  server::SolveRequest req;
  try {
    req = server::decode_solve_deferred(root, core_.registry(), core_.options().limits);
  } catch (const server::ProtocolError&) {
    return std::nullopt;
  }
  if (req.graphs.empty()) return std::nullopt;  // local dispatch answers it
  const std::string ns = req.ns.value_or(session.ns());

  // Partition the slots by owning peer: a handle through the location map,
  // an inline graph by its fingerprint, which gives repeated inline graphs
  // cache affinity (the same graph always lands on the same warm worker).
  // The slots' bytes themselves are forwarded untouched.
  const JsonValue::Array& slots = root.find("graphs")->as_array();
  std::vector<SubBatch> subs;
  std::vector<std::size_t> sub_of_peer(ring_.size(), SIZE_MAX);
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    const std::uint64_t hash = req.hashes[slot];
    const std::string* handle = std::get_if<std::string>(&req.graphs[slot]);
    const std::size_t peer = handle ? locate_handle(*handle, hash) : ring_.owner_index(hash);
    if (sub_of_peer[peer] == SIZE_MAX) {
      sub_of_peer[peer] = subs.size();
      SubBatch sub;
      sub.peer = peer;
      sub.rep_hash = hash;
      subs.push_back(std::move(sub));
    }
    SubBatch& sub = subs[sub_of_peer[peer]];
    sub.slots.push_back(slot);
    sub.has_handle = sub.has_handle || handle != nullptr;
  }
  req.graphs.clear();  // placed: the workers decode their own copies

  // Build each peer's sub-request: a graphs array of the peer's slots,
  // gathered from the client's bytes (a Raw slot is a view of the client's
  // line; handles are re-quoted), the namespace pinned explicitly (pooled
  // connections are namespace-less), then every other member of the
  // client's request — solver, options, measure flags, batch overrides —
  // json_dump'ed, which canonicalizes member order but keeps every value's
  // type (an option's 5.0 stays a double, so the worker rejects it exactly
  // where a single server would). The client's line outlives the fan-out.
  for (SubBatch& sub : subs) {
    GatheredLine& line = sub.line;
    line.own() += "{\"op\":\"solve\",\"graphs\":[";
    for (std::size_t i = 0; i < sub.slots.size(); ++i) {
      if (i) line.own() += ',';
      line.append(slots[sub.slots[i]]);
    }
    line.own() += ']';
    if (!ns.empty()) {
      line.own() += ",\"namespace\":";
      server::json_append_string(line.own(), ns);
    }
    finish_line(line, root, {"op", "graphs", "namespace"});
  }

  // Fan out: one worker per sub-batch (bounded by the ring size), sub-batch
  // 0 on this connection's thread, each running the full retry/failover
  // policy independently and sending its pieces with one gathered write per
  // attempt. Store-bound sub-batches cannot fail over — only the owner holds
  // their graphs.
  std::vector<std::string> raw(subs.size());
  const auto run_one = [&](std::size_t i) {
    const SubBatch& sub = subs[i];
    const std::vector<std::size_t> preference =
        sub.has_handle ? std::vector<std::size_t>{sub.peer} : ring_.preference(sub.rep_hash);
    raw[i] = forward(preference, /*can_fail_over=*/!sub.has_handle, /*control=*/false,
                     sub.line.pieces());
  };
  const int fan_out = static_cast<int>(subs.size());
  common::parallel_for(fan_out, fan_out, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) run_one(static_cast<std::size_t>(i));
  });

  // Any failed sub-batch fails the whole request — the same all-or-nothing
  // contract a single server gives a batch. Report the failure owning the
  // EARLIEST slot, the one a single server would have hit first.
  std::vector<std::string_view> ordered(slots.size());
  api::BatchDiagnostics diag;
  std::size_t error_sub = SIZE_MAX;
  std::size_t error_slot = slots.size();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    std::string_view tail;
    const std::optional<std::vector<std::string_view>> pieces =
        split_raw_responses(raw[i], &tail);
    const std::optional<api::BatchDiagnostics> sub_diag =
        pieces ? server::solve_diag_of(tail, ns) : std::nullopt;
    if (!sub_diag || pieces->size() != subs[i].slots.size()) {
      if (subs[i].slots.front() < error_slot) {
        error_slot = subs[i].slots.front();
        error_sub = i;
      }
      continue;
    }
    for (std::size_t j = 0; j < pieces->size(); ++j) ordered[subs[i].slots[j]] = (*pieces)[j];
    merge_diag(diag, *sub_diag);
  }
  if (error_sub != SIZE_MAX) {
    const std::string& line = raw[error_sub];
    if (server::error_code_of(line)) return line;  // a worker error line passes through verbatim
    return server::encode_error(
        ErrorCode::IoError, "peer " + opts_.peers[subs[error_sub].peer] +
                                " returned an unusable solve response for this batch");
  }
  core_.count_graphs(slots.size());
  return server::encode_solve_result_raw(ordered, diag, ns);
}

std::optional<std::string> Router::route_put(const JsonValue& root) {
  const JsonValue* graph_member = root.find("graph");
  if (!graph_member) return std::nullopt;
  std::uint64_t hash = 0;
  try {
    hash = server::decode_graph_deferred(*graph_member, core_.options().limits).hash;
  } catch (const server::ProtocolError&) {
    return std::nullopt;  // local dispatch reports the malformed graph
  }
  // Content-addressed placement: the handle the worker will mint IS this
  // fingerprint, so the put goes wherever that handle already lives — a
  // patch-derived child's recorded worker, else the ring owner — and a
  // single server's "new":false answer carries over. No failover: a graph
  // stored on a non-owner would be unreachable to routing.
  const std::size_t peer = locate_handle(api::GraphStore::handle_for(hash), hash);
  return forward({peer}, /*can_fail_over=*/false, /*control=*/true,
                 store_verb_line("put_graph", root).pieces());
}

std::optional<std::string> Router::route_patch(const JsonValue& root) {
  const JsonValue* handle = root.find("handle");
  if (!handle || handle->type() != JsonValue::Type::String) return std::nullopt;
  const std::optional<std::uint64_t> hash = api::GraphStore::parse_handle(handle->as_string());
  if (!hash) return std::nullopt;
  // The PARENT's owner applies the patch (it holds the adjacency the child
  // structurally shares). The child's content hash need not land on the same
  // ring segment, so its true location goes into the location map.
  const std::size_t peer = locate_handle(handle->as_string(), *hash);
  std::string response = forward({peer}, /*can_fail_over=*/false, /*control=*/true,
                                 store_verb_line("patch_graph", root).pieces());
  if (const auto child = server::stored_graph_of(response)) {
    record_location(child->put.handle, peer);
  }
  return response;
}

std::optional<std::string> Router::route_drop(const JsonValue& root) {
  const JsonValue* handle = root.find("handle");
  if (!handle || handle->type() != JsonValue::Type::String) return std::nullopt;
  const std::optional<std::uint64_t> hash = api::GraphStore::parse_handle(handle->as_string());
  if (!hash) return std::nullopt;
  // The location entry stays: a dropped graph remains resolvable on its
  // worker until evicted, as on a single server (kMaxLocations bounds the map).
  const std::size_t peer = locate_handle(handle->as_string(), *hash);
  return forward({peer}, /*can_fail_over=*/false, /*control=*/true,
                 store_verb_line("drop_graph", root).pieces());
}

std::string Router::route_stats(server::Session& session, const JsonValue& root) {
  std::string line = session.dispatch_local("stats", root);
  if (!line.ends_with('}')) return line;  // error line: pass through
  // Splice a "router" member before the closing brace — additive, so every
  // existing stats consumer keeps parsing.
  std::string extra = ",\"router\":{\"peers\":" + std::to_string(ring_.size()) +
                      ",\"forwards\":{";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (i) extra += ',';
    server::json_append_string(extra, ring_.peers()[i]);
    extra += ':' + std::to_string(forwards_[i]->load(std::memory_order_relaxed));
  }
  extra += "}}";
  line.insert(line.size() - 1, extra);
  return line;
}

}  // namespace lmds::cluster
