#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

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

std::uint64_t diag_counter(const JsonValue& diag, const char* name) {
  const JsonValue* v = diag.find(name);
  if (!v || v->type() != JsonValue::Type::Int) return 0;
  const std::int64_t n = v->as_int();
  return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

/// Folds one worker sub-response's "diag" object into the routed batch's
/// merged diagnostics: concurrency highs are maxed, work counters summed.
/// `tail` is what follows the sub-response's "responses" array
/// (`,"namespace":..,"diag":{..}}`, from split_raw_responses), so only
/// those few members are parsed, never the solutions.
void merge_diag(api::BatchDiagnostics& out, std::string_view tail) {
  if (!tail.starts_with(',')) return;
  JsonValue members;
  try {
    members = server::json_parse("{" + std::string(tail.substr(1)));
  } catch (const server::JsonError&) {
    return;  // split_raw_responses accepted the line, so this cannot happen
  }
  const JsonValue* diag = members.find("diag");
  if (!diag || diag->type() != JsonValue::Type::Object) return;
  out.threads = std::max<int>(out.threads, static_cast<int>(diag_counter(*diag, "threads")));
  out.intra_threads =
      std::max<int>(out.intra_threads, static_cast<int>(diag_counter(*diag, "intra_threads")));
  out.shards += static_cast<int>(diag_counter(*diag, "shards"));
  out.stolen_shards += diag_counter(*diag, "stolen_shards");
  out.cache_hits += diag_counter(*diag, "cache_hits");
  out.cache_misses += diag_counter(*diag, "cache_misses");
  out.cache_evictions += diag_counter(*diag, "cache_evictions");
  out.incremental_solves += diag_counter(*diag, "incremental_solves");
  out.incremental_fallbacks += diag_counter(*diag, "incremental_fallbacks");
  out.incremental_dirty += diag_counter(*diag, "incremental_dirty");
}

/// One sub-batch: the slots of the client batch owned by one peer.
struct SubBatch {
  std::size_t peer = 0;
  std::vector<std::size_t> slots;
  std::uint64_t rep_hash = 0;  ///< first slot's fingerprint (failover order)
  bool has_handle = false;     ///< store-bound: cannot fail over
  std::string line;            ///< the sub-request line
};

/// A request line for a worker: `head` (pre-encoded members, "op" first)
/// followed by every member of `root` not named in `replaced`. json_dump
/// re-emits Raw graph slots verbatim, so no graph is re-encoded.
std::string forward_line(const JsonValue& root, std::string_view head,
                         std::initializer_list<std::string_view> replaced) {
  std::string line = "{";
  line += head;
  for (const auto& [key, value] : root.as_object()) {
    if (std::find(replaced.begin(), replaced.end(), key) != replaced.end()) continue;
    line += ',';
    server::json_append_string(line, key);
    line += ':';
    line += server::json_dump(value);
  }
  line += '}';
  return line;
}

}  // namespace

std::optional<std::vector<std::string_view>> split_raw_responses(std::string_view line,
                                                                std::string_view* tail) {
  constexpr std::string_view kPrefix = "{\"ok\":true,\"op\":\"solve\",\"responses\":[";
  if (!line.starts_with(kPrefix)) return std::nullopt;
  std::vector<std::string_view> out;
  std::size_t i = kPrefix.size();
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
      ring_(opts_.peers, opts_.vnodes),
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

std::string Router::exchange(std::size_t peer, ClientPtr& client, const std::string& line) {
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
  if (client->send_raw(line + "\n")) response = client->read_raw_line();
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
                            bool control, const std::string& line) {
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
  if (verb == "patch_graph") return route_patch(session, root);
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
  const server::ServerLimits& limits = core_.options().limits;
  const JsonValue* graphs = root.find("graphs");
  if (!graphs || graphs->type() != JsonValue::Type::Array || graphs->as_array().empty()) {
    return std::nullopt;  // local dispatch produces the right bad_request
  }
  const JsonValue* ns_member = root.find("namespace");
  if (ns_member && ns_member->type() != JsonValue::Type::String) return std::nullopt;
  const std::string ns = ns_member ? ns_member->as_string() : session.ns();

  // Partition the slots by owning peer. Any shape trouble — a malformed
  // handle, an undecodable inline graph — falls through to local dispatch,
  // which produces the exact error line a single server would.
  const JsonValue::Array& slots = graphs->as_array();
  std::vector<SubBatch> subs;
  std::vector<std::size_t> sub_of_peer(ring_.size(), SIZE_MAX);
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    std::uint64_t hash = 0;
    bool is_handle = false;
    if (slots[slot].type() == JsonValue::Type::String) {
      const std::optional<std::uint64_t> parsed =
          api::GraphStore::parse_handle(slots[slot].as_string());
      if (!parsed) return std::nullopt;
      hash = *parsed;
      is_handle = true;
    } else {
      try {
        // The fingerprint IS the routing key, and it is what gives repeated
        // inline graphs cache affinity (the same graph always lands on the
        // same warm worker). The decoder yields it from the CSR build; the
        // slot's bytes themselves are forwarded untouched.
        hash = server::decode_graph_hashed(slots[slot], limits).hash;
      } catch (const server::ProtocolError&) {
        return std::nullopt;
      }
    }
    const std::size_t peer =
        is_handle ? locate_handle(slots[slot].as_string(), hash) : ring_.owner_index(hash);
    if (sub_of_peer[peer] == SIZE_MAX) {
      sub_of_peer[peer] = subs.size();
      SubBatch sub;
      sub.peer = peer;
      sub.rep_hash = hash;
      subs.push_back(std::move(sub));
    }
    SubBatch& sub = subs[sub_of_peer[peer]];
    sub.slots.push_back(slot);
    sub.has_handle = sub.has_handle || is_handle;
  }

  // Build each peer's sub-request: a graphs array of the peer's slots,
  // spliced from the client's bytes (Raw slots are the source text; handles
  // are re-quoted), the namespace pinned explicitly (pooled connections are
  // namespace-less), then every other member of the client's request —
  // solver, options, measure flags, batch overrides — json_dump'ed, which
  // canonicalizes member order but keeps every value's type (a 5.0 stays a
  // double, so the worker rejects it exactly where a single server would).
  for (SubBatch& sub : subs) {
    std::string head = "\"op\":\"solve\",\"graphs\":[";
    for (std::size_t i = 0; i < sub.slots.size(); ++i) {
      if (i) head += ',';
      const JsonValue& slot = slots[sub.slots[i]];
      if (slot.type() == JsonValue::Type::Raw) {
        head += slot.raw_text();
      } else {
        head += server::json_dump(slot);
      }
    }
    head += ']';
    if (!ns.empty()) {
      head += ",\"namespace\":";
      server::json_append_string(head, ns);
    }
    sub.line = forward_line(root, head, {"op", "graphs", "namespace"});
  }

  // Fan out: one worker per sub-batch (bounded by the ring size), sub-batch
  // 0 on this connection's thread, each running the full retry/failover
  // policy independently. Store-bound sub-batches cannot fail over — only
  // the owner holds their graphs.
  std::vector<std::string> raw(subs.size());
  const auto run_one = [&](std::size_t i) {
    const SubBatch& sub = subs[i];
    const std::vector<std::size_t> preference =
        sub.has_handle ? std::vector<std::size_t>{sub.peer} : ring_.preference(sub.rep_hash);
    raw[i] = forward(preference, /*can_fail_over=*/!sub.has_handle, /*control=*/false,
                     sub.line);
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
  diag.threads = 0;  // maxed from sub-responses below
  std::size_t error_sub = SIZE_MAX;
  std::size_t error_slot = slots.size();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    std::string_view tail;
    const std::optional<std::vector<std::string_view>> pieces =
        split_raw_responses(raw[i], &tail);
    if (!pieces || pieces->size() != subs[i].slots.size()) {
      if (subs[i].slots.front() < error_slot) {
        error_slot = subs[i].slots.front();
        error_sub = i;
      }
      continue;
    }
    for (std::size_t j = 0; j < pieces->size(); ++j) ordered[subs[i].slots[j]] = (*pieces)[j];
    merge_diag(diag, tail);
  }
  if (error_sub != SIZE_MAX) {
    const std::string& line = raw[error_sub];
    if (server::error_code_of(line)) return line;  // a worker error line passes through verbatim
    return server::encode_error(
        ErrorCode::IoError, "peer " + opts_.peers[subs[error_sub].peer] +
                                " returned an unusable solve response for this batch");
  }
  if (diag.threads == 0) diag.threads = 1;
  core_.count_graphs(slots.size());
  return server::encode_solve_result_raw(ordered, diag, ns);
}

std::optional<std::string> Router::route_put(const JsonValue& root) {
  const JsonValue* graph_member = root.find("graph");
  if (!graph_member) return std::nullopt;
  std::uint64_t hash = 0;
  try {
    hash = server::decode_graph_hashed(*graph_member, core_.options().limits).hash;
  } catch (const server::ProtocolError&) {
    return std::nullopt;  // local dispatch reports the malformed graph
  }
  // Content-addressed placement: the handle the worker will mint IS this
  // fingerprint, so no put location needs remembering — the ring re-derives
  // the owner from any future handle. No failover: a graph stored on a
  // non-owner would be unreachable to routing.
  const std::size_t peer = ring_.owner_index(hash);
  return forward({peer}, /*can_fail_over=*/false, /*control=*/true,
                 forward_line(root, "\"op\":\"put_graph\"", {"op"}));
}

std::optional<std::string> Router::route_patch(server::Session& session,
                                               const JsonValue& root) {
  (void)session;
  const JsonValue* handle = root.find("handle");
  if (!handle || handle->type() != JsonValue::Type::String) return std::nullopt;
  const std::optional<std::uint64_t> hash = api::GraphStore::parse_handle(handle->as_string());
  if (!hash) return std::nullopt;
  // The PARENT's owner applies the patch (it holds the adjacency the child
  // structurally shares). The child's content hash need not land on the same
  // ring segment, so its true location goes into the location map.
  const std::size_t peer = locate_handle(handle->as_string(), *hash);
  const std::string response =
      forward({peer}, /*can_fail_over=*/false, /*control=*/true,
              forward_line(root, "\"op\":\"patch_graph\"", {"op"}));
  try {
    const JsonValue parsed = server::json_parse(response);
    const JsonValue* ok = parsed.find("ok");
    const JsonValue* child = parsed.find("handle");
    if (ok && ok->type() == JsonValue::Type::Bool && ok->as_bool() && child &&
        child->type() == JsonValue::Type::String) {
      record_location(child->as_string(), peer);
    }
  } catch (const server::JsonError&) {
  }
  return response;
}

std::optional<std::string> Router::route_drop(const JsonValue& root) {
  const JsonValue* handle = root.find("handle");
  if (!handle || handle->type() != JsonValue::Type::String) return std::nullopt;
  const std::optional<std::uint64_t> hash = api::GraphStore::parse_handle(handle->as_string());
  if (!hash) return std::nullopt;
  const std::size_t peer = locate_handle(handle->as_string(), *hash);
  const std::string response =
      forward({peer}, /*can_fail_over=*/false, /*control=*/true,
              forward_line(root, "\"op\":\"drop_graph\"", {"op"}));
  {
    // Whatever the outcome, the location entry is stale or useless now.
    common::MutexLock lock(loc_mu_);
    locations_.erase(handle->as_string());
  }
  return response;
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
