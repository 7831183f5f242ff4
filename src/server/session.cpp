#include "server/session.hpp"

#include <memory>
#include <vector>

#include "cluster/replication.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/net.hpp"

namespace lmds::server {

namespace {

api::GraphStore::StoreOptions store_options(const CoreOptions& opts) {
  return {.capacity = opts.store_capacity,
          .max_namespace_bytes = opts.limits.max_namespace_store_bytes,
          .lease_ttl = std::chrono::milliseconds(opts.lease_ttl_ms)};
}

}  // namespace

ServerCore::ServerCore(CoreOptions opts, const api::Registry& registry)
    : opts_(std::move(opts)),
      registry_(registry),
      executor_(opts_.batch, registry),
      store_(store_options(opts_)),
      start_(std::chrono::steady_clock::now()) {}

double ServerCore::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

ServerCounters ServerCore::counters() const {
  return {connections_.load(), rejected_.load(), requests_.load(), graphs_solved_.load()};
}

void ServerCore::request_stop() {
  if (stop_.exchange(true)) return;
  // Copy the callback out under the lock, invoke it outside: the Server's
  // callback takes its own connection mutex, and holding stop_mu_ across
  // foreign code is how lock-order inversions start.
  std::function<void()> cb;
  {
    common::MutexLock lock(stop_mu_);
    cb = on_stop_;
  }
  if (cb) cb();
}

void ServerCore::set_stop_callback(std::function<void()> cb) {
  common::MutexLock lock(stop_mu_);
  on_stop_ = std::move(cb);
}

bool ServerCore::try_begin_solve(const std::string& ns) {
  const int limit = opts_.limits.max_namespace_inflight;
  if (limit <= 0) return true;
  common::MutexLock lock(admit_mu_);
  int& count = inflight_[ns];
  if (count >= limit) {
    if (count == 0) inflight_.erase(ns);  // limit 0 handled above; keep tidy
    return false;
  }
  ++count;
  return true;
}

void ServerCore::end_solve(const std::string& ns) {
  if (opts_.limits.max_namespace_inflight <= 0) return;
  common::MutexLock lock(admit_mu_);
  const auto it = inflight_.find(ns);
  if (it == inflight_.end()) return;
  if (--it->second <= 0) inflight_.erase(it);
}

std::string Session::handle_line(std::string_view line) {
  JsonValue root;
  try {
    root = json_parse(line);
  } catch (const JsonError& e) {
    core_.count_request();
    return encode_error(ErrorCode::BadRequest, std::string("invalid JSON: ") + e.what());
  }
  const JsonValue* op = root.find("op");
  if (!op || op->type() != JsonValue::Type::String) {
    core_.count_request();
    return encode_error(ErrorCode::BadRequest, "request needs a string \"op\" field");
  }
  return dispatch(op->as_string(), root);
}

std::string Session::dispatch(std::string_view verb, const JsonValue& root) {
  if (const ServerCore::DispatchOverride& override = core_.dispatch_override()) {
    if (std::optional<std::string> routed = override(*this, verb, root)) {
      core_.count_request();
      return *std::move(routed);
    }
  }
  return dispatch_local(verb, root);
}

std::string Session::dispatch_local(std::string_view verb, const JsonValue& root) {
  core_.count_request();
  try {
    if (verb == "solve") return do_solve(root);
    if (verb == "put_graph") return do_put_graph(root);
    if (verb == "patch_graph") return do_patch_graph(root);
    if (verb == "drop_graph") return do_drop_graph(root);
    if (verb == "open_session") return do_open_session(root);
    if (verb == "solvers") return encode_solvers(core_.registry());
    if (verb == "stats") return do_stats();
    if (verb == "save_cache" || verb == "load_cache") return do_snapshot(verb, root);
    if (verb == "replicate_out") return do_replicate_out(root);
    if (verb == "replicate_in") return do_replicate_in(root);
    if (verb == "shutdown") {
      core_.request_stop();
      return encode_ok("shutdown");
    }
    return encode_error(ErrorCode::BadRequest, "unknown op \"" + std::string(verb) + "\"");
  } catch (const ProtocolError& e) {
    return encode_error(e.code(), e.what());
  }
}

namespace {

/// RAII slot from ServerCore::try_begin_solve.
class AdmissionSlot {
 public:
  AdmissionSlot(ServerCore& core, std::string ns)
      : core_(core), ns_(std::move(ns)), admitted_(core.try_begin_solve(ns_)) {}
  ~AdmissionSlot() {
    if (admitted_) core_.end_solve(ns_);
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  bool admitted() const { return admitted_; }

 private:
  ServerCore& core_;
  std::string ns_;
  bool admitted_;
};

}  // namespace

std::string Session::do_solve(const JsonValue& root) {
  SolveRequest req = decode_solve(root, core_.registry(), core_.options().limits);

  // Request-level namespace wins over the session's open_session choice.
  req.overrides.cache_namespace = req.ns.value_or(ns_);

  // Per-namespace admission control: over-quota requests bounce *before*
  // any graph resolution or solver work, with a retryable busy answer.
  const AdmissionSlot slot(core_, req.overrides.cache_namespace);
  if (!slot.admitted()) {
    return encode_error(
        ErrorCode::ServerBusy,
        "namespace \"" + req.overrides.cache_namespace + "\" has " +
            std::to_string(core_.options().limits.max_namespace_inflight) +
            " solves in flight (per-namespace admission limit); retry shortly");
  }

  // Resolve the graph references into one pointer span: inline graphs live
  // in `decoded` (reserved up front — growth must not move earlier decodes),
  // handles resolve against the store with their shared_ptrs held in
  // `pinned` so a concurrent drop/evict cannot free a graph mid-batch.
  std::vector<graph::Graph> decoded;
  decoded.reserve(req.graphs.size());
  std::vector<std::shared_ptr<const graph::Graph>> pinned;
  std::vector<const graph::Graph*> ptrs;
  ptrs.reserve(req.graphs.size());
  // Every slot arrives with its fingerprint (a handle IS one; the decoder
  // hashed each inline graph as it built it), so the executor never walks a
  // graph to key the cache.
  // Patched handles additionally hand over their lineage, unlocking the
  // executor's ball-granular incremental re-solve (nullptr elsewhere).
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages(req.graphs.size());
  for (GraphRef& ref : req.graphs) {
    if (const auto* handle = std::get_if<std::string>(&ref)) {
      std::shared_ptr<const graph::Graph> g = core_.store().get(*handle, session_id_);
      if (!g) {
        throw ProtocolError(ErrorCode::UnknownHandle,
                            "unknown graph handle \"" + *handle +
                                "\" (expired, dropped, or never put)");
      }
      lineages[ptrs.size()] = core_.store().lineage(*handle);
      ptrs.push_back(g.get());
      pinned.push_back(std::move(g));
    } else {
      decoded.push_back(std::move(std::get<graph::Graph>(ref)));
      ptrs.push_back(&decoded.back());
    }
  }

  api::BatchDiagnostics diag;
  std::vector<std::shared_ptr<const api::CachedResponse>> entries;
  try {
    entries = core_.executor().run_batch_shared(req.solver, {ptrs.data(), ptrs.size()},
                                                req.request, req.overrides, &diag,
                                                {req.hashes.data(), req.hashes.size()},
                                                {lineages.data(), lineages.size()});
  } catch (const api::RequestError& e) {
    // Undeclared option, type mismatch, traffic on a centralized-only
    // solver — the request's fault, not the solver's.
    return encode_error(ErrorCode::BadRequest, e.what());
  } catch (const std::exception& e) {
    return encode_error(ErrorCode::SolverFailure,
                        "solver '" + req.solver + "' failed: " + e.what());
  }
  core_.count_graphs(req.graphs.size());
  // Each slot's element is its entry's memo: a hit's entry is the cache's
  // own, encoded on its first hit and spliced unchanged ever after; a miss's
  // is private and freed with this reply.
  std::vector<std::string_view> elements;
  elements.reserve(entries.size());
  for (const std::shared_ptr<const api::CachedResponse>& entry : entries) {
    elements.push_back(entry->memo(encode_response_element));
  }
  return encode_solve_result_raw({elements.data(), elements.size()}, diag,
                                 req.overrides.cache_namespace);
}

std::string Session::do_put_graph(const JsonValue& root) {
  if (core_.store().capacity() == 0) {
    // Not server_busy: with a zero-capacity store no drop_graph can ever
    // free room, so telling the client to retry would loop forever.
    throw ProtocolError(ErrorCode::BadRequest,
                        "put_graph is disabled on this server (graph store capacity 0)");
  }
  const JsonValue* graph = root.find("graph");
  if (!graph) {
    throw ProtocolError(ErrorCode::BadRequest, "put_graph needs a \"graph\" object");
  }
  graph::Graph g = decode_graph(*graph, core_.options().limits);
  api::GraphStore::PutResult put;
  try {
    put = core_.store().put(std::move(g), session_id_, ns_);
  } catch (const api::GraphStoreFull& e) {
    // Retryable once a client drops a graph — busy, not malformed.
    return encode_error(ErrorCode::ServerBusy, e.what());
  }
  std::string extra = "\"handle\":";
  json_append_string(extra, put.handle);
  extra += ",\"n\":" + std::to_string(put.vertices) + ",\"m\":" + std::to_string(put.edges) +
           ",\"new\":" + (put.inserted ? std::string("true") : std::string("false"));
  return encode_ok("put_graph", extra);
}

std::string Session::do_patch_graph(const JsonValue& root) {
  if (core_.store().capacity() == 0) {
    // Same reasoning as put_graph: nothing could ever be patched, so this is
    // a configuration fact, not a transient condition.
    throw ProtocolError(ErrorCode::BadRequest,
                        "patch_graph is disabled on this server (graph store capacity 0)");
  }
  const JsonValue* handle = root.find("handle");
  if (!handle || handle->type() != JsonValue::Type::String) {
    throw ProtocolError(ErrorCode::BadRequest, "patch_graph needs a string \"handle\" field");
  }
  if (!api::GraphStore::parse_handle(handle->as_string())) {
    // Shape errors are the request's fault; only well-formed handles that
    // resolve to nothing get the (retryable-after-put) unknown_handle code.
    throw ProtocolError(ErrorCode::BadRequest,
                        "\"" + handle->as_string() +
                            "\" is not a graph handle (expected \"g\" + 16 hex digits)");
  }
  const graph::GraphPatch patch = decode_patch(root, core_.options().limits);
  api::GraphStore::PatchResult result;
  try {
    result = core_.store().patch(handle->as_string(), patch, session_id_, ns_);
  } catch (const api::UnknownGraphHandle& e) {
    throw ProtocolError(ErrorCode::UnknownHandle,
                        std::string(e.what()) + " (expired, dropped, or never put)");
  } catch (const api::GraphStoreFull& e) {
    return encode_error(ErrorCode::ServerBusy, e.what());
  } catch (const std::invalid_argument& e) {
    // apply_patch's consistency validation against the actual parent:
    // duplicate edits, deletes of absent edges, adds of present ones...
    throw ProtocolError(ErrorCode::BadRequest, e.what());
  }
  std::string extra = "\"handle\":";
  json_append_string(extra, result.put.handle);
  extra += ",\"parent\":";
  json_append_string(extra, result.parent);
  extra += ",\"n\":" + std::to_string(result.put.vertices) +
           ",\"m\":" + std::to_string(result.put.edges) +
           ",\"new\":" + (result.put.inserted ? std::string("true") : std::string("false"));
  return encode_ok("patch_graph", extra);
}

std::string Session::do_drop_graph(const JsonValue& root) {
  const JsonValue* handle = root.find("handle");
  if (!handle || handle->type() != JsonValue::Type::String) {
    throw ProtocolError(ErrorCode::BadRequest, "drop_graph needs a string \"handle\" field");
  }
  if (!core_.store().drop(handle->as_string(), session_id_)) {
    // Covers both "no such handle" and "pinned by someone else" — the codes
    // are deliberately identical, so one tenant cannot probe another's pins.
    throw ProtocolError(ErrorCode::UnknownHandle,
                        "unknown graph handle \"" + handle->as_string() +
                            "\" (or not pinned by this session)");
  }
  std::string extra = "\"handle\":";
  json_append_string(extra, handle->as_string());
  return encode_ok("drop_graph", extra);
}

std::string Session::do_open_session(const JsonValue& root) {
  std::string ns;
  if (const JsonValue* v = root.find("namespace")) {
    ns = decode_namespace(*v);
  }
  ns_ = std::move(ns);
  std::string extra = "\"namespace\":";
  json_append_string(extra, ns_);
  return encode_ok("open_session", extra);
}

std::string Session::do_stats() {
  api::BatchExecutor& executor = core_.executor();
  core_.store().expire_leases();  // report post-expiry reality, not stale pins
  std::map<std::string, api::NamespaceStats> namespaces =
      executor.cache().namespace_stats();
  api::GraphStoreStats store = core_.store().stats();
  if (!core_.options().stats_all_namespaces) {
    // Don't leak other tenants' namespace tags: knowing a tag is all it
    // takes to read that tenant's warm cache, so a client sees only its own
    // slice (operators opt into the full map). Same rule for the store's
    // byte accounting and pin-lease map: own namespace, own session only.
    std::map<std::string, api::NamespaceStats> own;
    if (const auto it = namespaces.find(ns_); it != namespaces.end()) own.insert(*it);
    namespaces = std::move(own);
    std::map<std::string, std::uint64_t> own_bytes;
    if (const auto it = store.namespace_bytes.find(ns_); it != store.namespace_bytes.end()) {
      own_bytes.insert(*it);
    }
    store.namespace_bytes = std::move(own_bytes);
    std::map<api::SessionId, std::uint64_t> own_pins;
    if (const auto it = store.session_pins.find(session_id_);
        it != store.session_pins.end()) {
      own_pins.insert(*it);
    }
    store.session_pins = std::move(own_pins);
  }
  return encode_stats(executor.cache_stats(), namespaces, store, executor.health(),
                      core_.counters(), core_.uptime_seconds());
}

std::string Session::do_replicate_out(const JsonValue& root) {
  const std::string members =
      cluster::encode_replication_members(core_.store(), core_.executor().cache());
  const JsonValue* peer = root.find("peer");
  if (!peer) return encode_ok("replicate_out", members);  // pull: payload inline

  // Push mode: dial the peer and hand the payload to its replicate_in.
  const std::optional<std::pair<std::string, int>> host_port =
      peer->type() == JsonValue::Type::String ? parse_host_port(peer->as_string())
                                              : std::nullopt;
  if (!host_port) {
    throw ProtocolError(ErrorCode::BadRequest, "replicate \"peer\" must be \"host:port\"");
  }
  const std::string& addr = peer->as_string();
  try {
    ClientOptions peer_opts;
    peer_opts.connect_timeout_ms = 5000;
    peer_opts.io_timeout_ms = 60000;  // a big payload may take a moment
    ProtocolClient client(host_port->first, host_port->second, /*http=*/false, "", peer_opts);
    const JsonValue response = client.exchange("replicate_in", members);
    require_ok(response, "replicate_in on " + addr);
    std::string extra = "\"peer\":";
    json_append_string(extra, addr);
    const JsonValue* installed = response.find("installed");
    const JsonValue* present = response.find("present");
    extra += ",\"installed\":" +
             std::to_string(installed ? installed->as_int() : 0) + ",\"present\":" +
             std::to_string(present ? present->as_int() : 0);
    return encode_ok("replicate_out", extra);
  } catch (const std::exception& e) {
    return encode_error(ErrorCode::IoError,
                        "replicate to " + addr + " failed: " + e.what());
  }
}

std::string Session::do_replicate_in(const JsonValue& root) {
  const cluster::ReplicationResult result = cluster::apply_replication(
      root, core_.store(), core_.executor().cache(), core_.options().limits);
  std::string extra = "\"installed\":" + std::to_string(result.installed) +
                      ",\"present\":" + std::to_string(result.present) +
                      ",\"rejected\":" + std::to_string(result.rejected) +
                      ",\"cache_merged\":" + (result.cache_merged ? "true" : "false");
  return encode_ok("replicate_in", extra);
}

std::string Session::do_snapshot(std::string_view verb, const JsonValue& root) {
  const JsonValue* path = root.find("path");
  if (!path || path->type() != JsonValue::Type::String) {
    return encode_error(ErrorCode::BadRequest,
                        "\"" + std::string(verb) + "\" needs a string \"path\" field");
  }
  const std::string resolved = resolve_snapshot_path(path->as_string());
  try {
    if (verb == "save_cache") {
      core_.executor().cache().save_file(resolved);
    } else {
      core_.executor().cache().load_file(resolved);
    }
  } catch (const std::exception& e) {
    return encode_error(ErrorCode::IoError, e.what());
  }
  std::string extra = "\"path\":";
  json_append_string(extra, path->as_string());
  extra += ",\"entries\":" + std::to_string(core_.executor().cache_stats().size);
  return encode_ok(verb, extra);
}

std::string Session::resolve_snapshot_path(const std::string& path) const {
  const std::string& dir = core_.options().snapshot_dir;
  if (dir.empty()) {
    throw ProtocolError(ErrorCode::BadRequest,
                        "snapshot verbs are disabled (no snapshot directory configured)");
  }
  // Clients name snapshots, not filesystem locations: a relative path with
  // no ".." segment, resolved under the operator-chosen directory. Anything
  // else could truncate/probe arbitrary files the server can access.
  if (path.empty() || path.front() == '/' || path.find("..") != std::string::npos) {
    throw ProtocolError(ErrorCode::BadRequest,
                        "snapshot path must be relative without \"..\" (it resolves "
                        "under the server's snapshot directory)");
  }
  return dir + "/" + path;
}

}  // namespace lmds::server
