#include "trace.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "api/registry.hpp"
#include "cluster/hash_ring.hpp"
#include "graph/hash.hpp"
#include "graph/ops.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"
#include "solve/validate.hpp"

namespace loadbench {

namespace {

using Clock = std::chrono::steady_clock;
using lmds::server::ErrorCode;
using lmds::server::JsonValue;
using lmds::server::ProtocolError;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

enum Layer : std::uint8_t {
  kOp,  // one whole decomposed request; the others are its children
  kParse,
  kFree,  // tearing the parsed request DOM down (part of handle_line's cost)
  kDecode,
  kHash,
  kGet,
  kPatch,
  kPutDrop,
  kExecutor,
  kEncode,
  kLayers
};
constexpr std::array<const char*, kLayers> kLayerNames = {
    "request",   "json_parse",  "json_free",      "decode",    "graph_hash",
    "store_get", "store_patch", "store_put_drop", "run_batch", "encode"};

/// In-memory span recorder: name (layer), start, end, parent and op id.
class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t op = 0;
    Layer layer = kOp;
  };

  class Scope {
   public:
    Scope(Tracer& t, Layer layer) : t_(t), index_(t.open(layer)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_;
  };

  void enable(bool on) { enabled_ = on; }
  void begin_op(std::uint32_t op) {
    op_ = op;
    first_ = spans_.size();
  }

  /// Per-layer span totals (microseconds) and counts of the current op.
  void op_totals(std::array<double, kLayers>& us, std::array<int, kLayers>& count) const {
    for (std::size_t i = first_; i < spans_.size(); ++i) {
      us[spans_[i].layer] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
      ++count[spans_[i].layer];
    }
  }

  void write(const std::string& path,
             const std::vector<std::pair<int, std::uint64_t>>& op_ids) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"span\":" << i << ",\"op\":" << s.op << ",\"conn\":" << op_ids[s.op].first
          << ",\"k\":" << op_ids[s.op].second << ",\"name\":\"" << kLayerNames[s.layer]
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  std::int32_t open(Layer layer) {
    if (!enabled_) return -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, current_, op_, layer});
    current_ = index;
    return index;
  }
  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t op_ = 0;
  std::size_t first_ = 0;
  bool enabled_ = false;
};

/// One replayed op: its in-process reference time, its layer spans and the
/// solver work that ran inside run_batch.
struct OpTrace {
  int conn = 0;
  std::uint64_t k = 0;
  double handle_us = 0;
  std::array<double, kLayers> layer_us{};
  std::array<int, kLayers> layer_count{};
  double solver_inside_us = 0;
  double response_bytes = 0;
};

/// Measurements taken outside the request spans.
struct Outside {
  double parse_bytes = 0;
  double hashed_graphs = 0;
  std::vector<double> apply_patch_us;
  std::map<std::string, std::pair<double, double>> solver;  // solver -> (us, vertices)
  std::map<std::string, double> solve_memo;                 // solver|options|hash -> us
  double validate_us = 0;
  double validate_vertices = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Distinct graphs per solver timed with Registry::run even when the op
/// itself was answered from cache (for the per-vertex solver metrics).
constexpr int kSolverSamples = 32;

/// The one scheduling-dependent field of a solve line.
std::string without_stolen_shards(std::string s) {
  constexpr std::string_view kKey = "\"stolen_shards\":";
  const std::size_t at = s.rfind(kKey);
  if (at == std::string::npos) return s;
  std::size_t end = at + kKey.size();
  while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
  s.replace(at + kKey.size(), end - at - kKey.size(), "0");
  return s;
}

std::string options_key(const lmds::api::Options& options) {
  std::string key;
  for (const auto& [name, value] : options) key += name + "=" + value.to_string() + ";";
  return key;
}

/// One replay connection: a Session on core A (handle_line, untraced) and a
/// Session on core B (the decomposed, traced path).
class TracedTransport final : public Transport {
 public:
  TracedTransport(lmds::server::ServerCore& a, lmds::server::ServerCore& b, Tracer& tracer,
                  Outside& outside)
      : a_(a, lmds::server::Session::LeaseScope::Owned),
        b_(b, lmds::server::Session::LeaseScope::Owned),
        core_b_(b),
        tracer_(tracer),
        outside_(outside) {}

  /// The op the next exchanges belong to; nullptr during set-up.
  void set_op(OpTrace* op) { op_ = op; }

  std::string exchange(const std::string& line) override {
    solve_.reset();
    patch_.reset();
    std::string ra;
    std::string rb;
    double a_us = 0;
    const auto run_a = [&] {
      const auto t0 = Clock::now();
      ra = a_.handle_line(line);
      a_us = us_since(t0);
    };
    // Alternate which core goes first so neither always runs on warm caches.
    flip_ = !flip_;
    if (flip_) {
      run_a();
      rb = decomposed(line);
    } else {
      rb = decomposed(line);
      run_a();
    }
    if (op_) {
      op_->handle_us += a_us;
      op_->response_bytes += static_cast<double>(ra.size());
      outside_.parse_bytes += static_cast<double>(line.size());
      if (without_stolen_shards(ra) != without_stolen_shards(rb)) {
        if (outside_.mismatches++ == 0) {
          outside_.first_mismatch = "handle_line: " + ra.substr(0, 160) +
                                    " | decomposed: " + rb.substr(0, 160);
        }
      }
      measure_outside();
    }
    return ra;
  }

 private:
  struct SolveState {
    std::string solver;
    lmds::api::Options options;
    bool bypass = false;
    std::vector<lmds::graph::Graph> decoded;
    std::vector<std::shared_ptr<const lmds::graph::Graph>> pinned;
    std::vector<const lmds::graph::Graph*> graphs;
    std::vector<std::uint64_t> hashes;
    std::vector<lmds::api::Response> responses;
    lmds::api::BatchDiagnostics diag;
  };
  struct PatchState {
    std::shared_ptr<const lmds::graph::Graph> parent;
    lmds::graph::GraphPatch patch;
  };

  /// Session::handle_line's path (dispatch_local on the success path of
  /// solve / put_graph / patch_graph / drop_graph), one span per call.
  std::string decomposed(const std::string& line) {
    const Tracer::Scope request(tracer_, kOp);
    JsonValue root;
    {
      const Tracer::Scope s(tracer_, kParse);
      root = lmds::server::json_parse(line);
    }
    const std::string verb = root.find("op")->as_string();
    core_b_.count_request();
    std::string out;
    try {
      if (verb == "solve") {
        out = solve(root);
      } else if (verb == "put_graph") {
        out = put(root);
      } else if (verb == "patch_graph") {
        out = patch(root);
      } else if (verb == "drop_graph") {
        out = drop(root);
      } else {
        throw std::logic_error("the traced replay has no decomposition of op " + verb);
      }
    } catch (const ProtocolError& e) {
      out = lmds::server::encode_error(e.code(), e.what());
    }
    const Tracer::Scope s(tracer_, kFree);
    root = JsonValue();
    return out;
  }

  std::string solve(const JsonValue& root) {
    lmds::server::SolveRequest req;
    {
      const Tracer::Scope s(tracer_, kDecode);
      req = lmds::server::decode_solve(root, core_b_.registry(), core_b_.options().limits);
    }
    req.overrides.cache_namespace = req.ns.value_or(b_.ns());
    // Admission control is off (no --max-namespace-inflight) in every
    // workload, so Session's admission slot always admits.
    auto st = std::make_unique<SolveState>();
    const std::size_t n = req.graphs.size();
    st->decoded.reserve(n);
    st->hashes.assign(n, 0);
    std::vector<std::shared_ptr<const lmds::api::PatchLineage>> lineages(n);
    lmds::api::GraphStore& store = core_b_.store();
    for (lmds::server::GraphRef& ref : req.graphs) {
      const std::size_t i = st->graphs.size();
      if (const auto* handle = std::get_if<std::string>(&ref)) {
        const Tracer::Scope s(tracer_, kGet);
        std::shared_ptr<const lmds::graph::Graph> g = store.get(*handle, b_.session_id());
        if (!g) {
          throw ProtocolError(ErrorCode::UnknownHandle,
                              "unknown graph handle \"" + *handle +
                                  "\" (expired, dropped, or never put)");
        }
        st->hashes[i] = lmds::api::GraphStore::parse_handle(*handle).value_or(0);
        lineages[i] = store.lineage(*handle);
        st->graphs.push_back(g.get());
        st->pinned.push_back(std::move(g));
      } else {
        st->decoded.push_back(std::move(std::get<lmds::graph::Graph>(ref)));
        st->graphs.push_back(&st->decoded.back());
        const Tracer::Scope s(tracer_, kHash);
        st->hashes[i] = lmds::graph::graph_hash(st->decoded.back());
        if (op_) outside_.hashed_graphs += 1;
      }
    }
    try {
      const Tracer::Scope s(tracer_, kExecutor);
      st->responses = core_b_.executor().run_batch(
          req.solver, {st->graphs.data(), n}, req.request, req.overrides, &st->diag,
          {st->hashes.data(), n}, {lineages.data(), n});
    } catch (const lmds::api::RequestError& e) {
      return lmds::server::encode_error(ErrorCode::BadRequest, e.what());
    } catch (const std::exception& e) {
      return lmds::server::encode_error(ErrorCode::SolverFailure,
                                        "solver '" + req.solver + "' failed: " + e.what());
    }
    core_b_.count_graphs(n);
    std::string out;
    {
      const Tracer::Scope s(tracer_, kEncode);
      out = lmds::server::encode_solve_result({st->responses.data(), n}, st->diag,
                                              req.overrides.cache_namespace);
    }
    st->solver = req.solver;
    st->options = req.request.options;
    st->bypass = req.overrides.bypass_cache;
    solve_ = std::move(st);
    return out;
  }

  std::string put(const JsonValue& root) {
    lmds::graph::Graph g;
    {
      const Tracer::Scope s(tracer_, kDecode);
      g = lmds::server::decode_graph(*root.find("graph"), core_b_.options().limits);
    }
    lmds::api::GraphStore::PutResult put;
    try {
      const Tracer::Scope s(tracer_, kPutDrop);
      put = core_b_.store().put(std::move(g), b_.session_id(), b_.ns());
    } catch (const lmds::api::GraphStoreFull& e) {
      return lmds::server::encode_error(ErrorCode::ServerBusy, e.what());
    }
    const Tracer::Scope s(tracer_, kEncode);
    std::string extra = "\"handle\":";
    lmds::server::json_append_string(extra, put.handle);
    extra += ",\"n\":" + std::to_string(put.vertices) + ",\"m\":" + std::to_string(put.edges) +
             ",\"new\":" + (put.inserted ? "true" : "false");
    return lmds::server::encode_ok("put_graph", extra);
  }

  std::string patch(const JsonValue& root) {
    const std::string& handle = root.find("handle")->as_string();
    auto st = std::make_unique<PatchState>();
    {
      const Tracer::Scope s(tracer_, kDecode);
      st->patch = lmds::server::decode_patch(root, core_b_.options().limits);
    }
    lmds::api::GraphStore::PatchResult result;
    try {
      const Tracer::Scope s(tracer_, kPatch);
      result = core_b_.store().patch(handle, st->patch, b_.session_id(), b_.ns());
    } catch (const lmds::api::UnknownGraphHandle& e) {
      throw ProtocolError(ErrorCode::UnknownHandle,
                          std::string(e.what()) + " (expired, dropped, or never put)");
    } catch (const lmds::api::GraphStoreFull& e) {
      return lmds::server::encode_error(ErrorCode::ServerBusy, e.what());
    } catch (const std::invalid_argument& e) {
      throw ProtocolError(ErrorCode::BadRequest, e.what());
    }
    std::string out;
    {
      const Tracer::Scope s(tracer_, kEncode);
      std::string extra = "\"handle\":";
      lmds::server::json_append_string(extra, result.put.handle);
      extra += ",\"parent\":";
      lmds::server::json_append_string(extra, result.parent);
      extra += ",\"n\":" + std::to_string(result.put.vertices) +
               ",\"m\":" + std::to_string(result.put.edges) +
               ",\"new\":" + (result.put.inserted ? "true" : "false");
      out = lmds::server::encode_ok("patch_graph", extra);
    }
    if (const auto lineage = core_b_.store().lineage(result.put.handle)) {
      st->parent = lineage->parent;
      patch_ = std::move(st);
    }
    return out;
  }

  std::string drop(const JsonValue& root) {
    const std::string& handle = root.find("handle")->as_string();
    bool dropped = false;
    {
      const Tracer::Scope s(tracer_, kPutDrop);
      dropped = core_b_.store().drop(handle, b_.session_id());
    }
    if (!dropped) {
      throw ProtocolError(ErrorCode::UnknownHandle, "unknown graph handle \"" + handle +
                                                        "\" (or not pinned by this session)");
    }
    const Tracer::Scope s(tracer_, kEncode);
    std::string extra = "\"handle\":";
    lmds::server::json_append_string(extra, handle);
    return lmds::server::encode_ok("drop_graph", extra);
  }

  /// Registry::run on the op's graphs (memoized per distinct graph), the
  /// validity check on every answer, and apply_patch on the op's edits —
  /// all outside the request spans.
  void measure_outside() {
    if (solve_) {
      const SolveState& st = *solve_;
      const std::size_t n = st.graphs.size();
      const std::uint64_t full =
          st.bypass ? n : st.diag.cache_misses - std::min(st.diag.cache_misses,
                                                           st.diag.incremental_solves);
      double total_us = 0;
      bool all_timed = true;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string key =
            st.solver + "|" + options_key(st.options) + "|" + std::to_string(st.hashes[i]);
        auto it = outside_.solve_memo.find(key);
        auto& [solver_us, solver_vertices] = outside_.solver[st.solver];
        if (it == outside_.solve_memo.end() && (full > 0 || solver_samples_[st.solver] < kSolverSamples)) {
          lmds::api::Request req;
          req.graph = st.graphs[i];
          req.options = st.options;
          const auto t0 = Clock::now();
          (void)lmds::api::Registry::instance().run(st.solver, req);
          const double us = us_since(t0);
          it = outside_.solve_memo.emplace(key, us).first;
          ++solver_samples_[st.solver];
          solver_us += us;
          solver_vertices += st.graphs[i]->num_vertices();
        }
        if (it == outside_.solve_memo.end()) {
          all_timed = false;
        } else {
          total_us += it->second;
        }
      }
      // The solves spread over the batch's workers, so their share of the
      // run_batch wall time is the summed solver time over the worker count.
      if (full > 0 && all_timed) {
        op_->solver_inside_us += total_us * static_cast<double>(full) / static_cast<double>(n) /
                                 std::max(1, st.diag.threads);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const lmds::api::Response& r = st.responses[i];
        const auto t0 = Clock::now();
        const bool valid = r.problem == lmds::api::Problem::Mvc
                               ? lmds::solve::is_vertex_cover(*st.graphs[i], r.solution)
                               : lmds::solve::is_dominating_set(*st.graphs[i], r.solution);
        outside_.validate_us += us_since(t0);
        outside_.validate_vertices += st.graphs[i]->num_vertices();
        if (!valid && outside_.mismatches++ == 0) outside_.first_mismatch = "invalid answer";
      }
    }
    if (patch_) {
      const auto t0 = Clock::now();
      (void)lmds::graph::apply_patch(*patch_->parent, patch_->patch);
      outside_.apply_patch_us.push_back(us_since(t0));
    }
  }

  lmds::server::Session a_;
  lmds::server::Session b_;
  lmds::server::ServerCore& core_b_;
  Tracer& tracer_;
  Outside& outside_;
  OpTrace* op_ = nullptr;
  bool flip_ = false;
  std::unique_ptr<SolveState> solve_;
  std::unique_ptr<PatchState> patch_;
  std::map<std::string, int> solver_samples_;
};

/// lmds_serve's defaults plus the workload's store/cache flags.
lmds::server::CoreOptions core_options(const std::vector<std::string>& flags) {
  lmds::server::CoreOptions opts;
  opts.batch.threads = 0;
  opts.batch.cache_capacity = 4096;
  for (std::size_t i = 0; i + 1 < flags.size(); ++i) {
    if (flags[i] == "--store-capacity") opts.store_capacity = std::stoul(flags[i + 1]);
    if (flags[i] == "--cache-capacity") opts.batch.cache_capacity = std::stoul(flags[i + 1]);
  }
  return opts;
}

std::string fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace

TraceReport traced_replay(Workload& w, const std::vector<std::size_t>& socket_ops,
                          double socket_p50_ms, double budget_s, const std::string& spans_path) {
  const Topology topo = w.topology();
  const lmds::server::CoreOptions opts = core_options(topo.flags);
  const lmds::api::Registry& registry = lmds::api::Registry::instance();
  lmds::server::ServerCore core_a(opts, registry);
  lmds::server::ServerCore core_b(opts, registry);
  Tracer tracer;
  Outside outside;
  std::vector<std::unique_ptr<TracedTransport>> conns;
  std::vector<Transport*> transports;
  for (std::size_t c = 0; c < topo.http.size(); ++c) {
    conns.push_back(std::make_unique<TracedTransport>(core_a, core_b, tracer, outside));
    transports.push_back(conns.back().get());
  }
  w.setup(transports);

  TraceReport rep;
  std::vector<OpTrace> ops;
  std::vector<std::pair<int, std::uint64_t>> op_ids;
  constexpr std::size_t kMaxOps = 600;
  tracer.enable(true);
  const auto t0 = Clock::now();
  bool more = true;
  for (std::uint64_t k = 0; more && ops.size() < kMaxOps &&
                            std::chrono::duration<double>(Clock::now() - t0).count() < budget_s;
       ++k) {
    more = false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (k >= socket_ops[c]) continue;
      more = true;
      OpTrace op;
      op.conn = static_cast<int>(c);
      op.k = k;
      tracer.begin_op(static_cast<std::uint32_t>(ops.size()));
      conns[c]->set_op(&op);
      w.run_op(*conns[c], static_cast<int>(c), k, rep.tally);
      conns[c]->set_op(nullptr);
      tracer.op_totals(op.layer_us, op.layer_count);
      ops.push_back(op);
      op_ids.emplace_back(op.conn, op.k);
    }
  }
  tracer.enable(false);
  tracer.write(spans_path, op_ids);

  rep.ops = ops.size();
  rep.parity_mismatches = outside.mismatches;
  rep.parity_problem = outside.first_mismatch;

  const auto per_op = [&](Layer layer, bool only_present) {
    std::vector<double> v;
    for (const OpTrace& op : ops) {
      if (!only_present || op.layer_count[layer] > 0) v.push_back(op.layer_us[layer]);
    }
    return median(v);
  };
  double sum_handle = 0;
  double sum_children = 0;
  double sum_request = 0;
  double sum_parse = 0;
  double sum_hash = 0;
  std::vector<double> handle;
  std::vector<double> self;
  std::vector<double> solve_inside;
  std::vector<double> store;
  std::vector<double> json;  // parse + DOM teardown
  double response_bytes = 0;
  for (const OpTrace& op : ops) {
    sum_handle += op.handle_us;
    sum_request += op.layer_us[kOp];
    for (int l = kParse; l < kLayers; ++l) sum_children += op.layer_us[l];
    sum_parse += op.layer_us[kParse];
    sum_hash += op.layer_us[kHash];
    handle.push_back(op.handle_us);
    self.push_back(op.layer_us[kExecutor] - op.solver_inside_us);
    solve_inside.push_back(op.solver_inside_us);
    store.push_back(op.layer_us[kGet] + op.layer_us[kPatch] + op.layer_us[kPutDrop]);
    json.push_back(op.layer_us[kParse] + op.layer_us[kFree]);
    response_bytes += op.response_bytes;
  }
  const double n_ops = std::max<double>(1, static_cast<double>(ops.size()));
  rep.coverage = sum_handle > 0 ? sum_children / sum_handle : 0;
  rep.span_coverage = sum_request > 0 ? sum_children / sum_request : 0;
  const double overhead = sum_handle > 0 ? sum_request / sum_handle - 1 : 0;
  const auto per_vertex = [&](const char* solver) {
    const auto it = outside.solver.find(solver);
    return it == outside.solver.end() || it->second.second == 0
               ? 0.0
               : it->second.first / it->second.second;
  };

  const double handle_p50 = median(handle);
  // The socket's share: the client-side p50 round trip minus the in-process
  // handle_line p50 over the same op stream.
  const double rtt_overhead = socket_p50_ms * 1e3 - handle_p50;

  rep.metrics = {
      {"server.net.rtt_overhead_us", rtt_overhead, "us"},
      {"server.session.handle_us", handle_p50, "us"},
      {"server.json.parse_us", per_op(kParse, false), "us"},
      {"server.json.free_us", per_op(kFree, false), "us"},
      {"server.json.parse_mb_per_s", sum_parse > 0 ? outside.parse_bytes / sum_parse : 0, "MB/s"},
      {"server.protocol.decode_us", per_op(kDecode, false), "us"},
      {"server.protocol.encode_us", per_op(kEncode, false), "us"},
      {"server.protocol.response_kb", response_bytes / n_ops / 1024, "KiB"},
      {"graph.hash.us_per_graph",
       outside.hashed_graphs > 0 ? sum_hash / outside.hashed_graphs : 0, "us"},
      {"graph.ops.apply_patch_us", median(outside.apply_patch_us), "us"},
      {"api.graph_store.get_us", per_op(kGet, true), "us"},
      {"api.graph_store.patch_us", per_op(kPatch, true), "us"},
      {"api.executor.run_batch_us", per_op(kExecutor, false), "us"},
      {"api.executor.self_us", median(self), "us"},
      {"solve.algorithm1.us_per_vertex", per_vertex("algorithm1"), "us"},
      {"solve.greedy.us_per_vertex", per_vertex("greedy"), "us"},
      {"solve.ksv.us_per_vertex", per_vertex("ksv"), "us"},
      {"solve.theorem44.us_per_vertex", per_vertex("theorem44"), "us"},
      {"solve.validate.us_per_vertex",
       outside.validate_vertices > 0 ? outside.validate_us / outside.validate_vertices : 0, "us"},
      {"bench.trace_coverage", rep.coverage, "ratio"},
      {"bench.trace_overhead", overhead, "ratio"},
  };

  rep.table =
      "of p50 = " + fmt(socket_p50_ms * 1e3) + " us: parse " + fmt(median(json)) +
      ", decode " + fmt(per_op(kDecode, false)) + ", hash " + fmt(per_op(kHash, false)) +
      ", store " + fmt(median(store)) + ", executor " + fmt(per_op(kExecutor, false)) +
      " (solve " + fmt(median(solve_inside)) + "), encode " + fmt(per_op(kEncode, false)) +
      ", socket " + fmt(rtt_overhead) + "\n" + "traced replay: " +
      std::to_string(ops.size()) + " ops, handle_line p50 " + fmt(handle_p50) +
      " us, layer spans cover " + fmt(100 * rep.coverage) + "% of handle_line and " +
      fmt(100 * rep.span_coverage) + "% of their requests, parity " +
      (outside.mismatches == 0 ? std::string("ok")
                               : std::to_string(outside.mismatches) + " mismatches") +
      "\ntracing overhead: traced " + fmt(sum_request > 0 ? n_ops / sum_request * 1e6 : 0) +
      " ops/s vs untraced " + fmt(sum_handle > 0 ? n_ops / sum_handle * 1e6 : 0) + " ops/s (" +
      fmt(100 * overhead) + "%)";
  return rep;
}

RouterReport measure_router(const Workload& w, int router_port,
                            const std::vector<int>& worker_ports, int ops) {
  std::vector<std::string> peers;
  for (const int port : worker_ports) peers.push_back("127.0.0.1:" + std::to_string(port));
  const lmds::cluster::HashRing ring(peers, 64);  // lmds_serve's --vnodes default
  SocketTransport router(router_port, false);
  std::vector<std::unique_ptr<SocketTransport>> workers;
  for (const int port : worker_ports) workers.push_back(std::make_unique<SocketTransport>(port, false));

  std::vector<double> self;
  std::vector<double> share;
  std::vector<double> subs;
  const lmds::server::ServerLimits limits;
  for (int k = 0; k < ops; ++k) {
    const std::string line = w.op_line(0, static_cast<std::uint64_t>(k));
    auto t0 = Clock::now();
    const std::string routed = router.exchange(line);
    const double routed_us = us_since(t0);
    if (!routed.starts_with("{\"ok\":true")) throw std::runtime_error("routed solve failed");

    // The router's ingest, timed from outside: parse, decode + hash every
    // inline graph for its ring owner, re-dump one sub-request per owner.
    t0 = Clock::now();
    const JsonValue root = lmds::server::json_parse(line);
    const JsonValue::Array& slots = root.find("graphs")->as_array();
    std::map<std::size_t, JsonValue::Array> by_owner;
    for (const JsonValue& slot : slots) {
      const std::uint64_t hash = lmds::graph::graph_hash(lmds::server::decode_graph(slot, limits));
      by_owner[ring.owner_index(hash)].push_back(slot);
    }
    std::vector<std::pair<std::size_t, std::string>> sub_lines;
    for (auto& [owner, mine] : by_owner) {
      JsonValue::Object obj = root.as_object();
      obj.insert_or_assign("graphs", JsonValue(std::move(mine)));
      obj.erase("namespace");
      sub_lines.emplace_back(owner, lmds::server::json_dump(JsonValue(std::move(obj))));
    }
    const double ingest_us = us_since(t0);

    double slowest = 0;
    for (const auto& [owner, sub] : sub_lines) {
      t0 = Clock::now();
      const std::string direct = workers[owner]->exchange(sub);
      slowest = std::max(slowest, us_since(t0));
      if (!direct.starts_with("{\"ok\":true")) throw std::runtime_error("direct sub-batch failed");
    }
    self.push_back(routed_us - slowest);
    share.push_back(ingest_us / routed_us);
    subs.push_back(static_cast<double>(sub_lines.size()));
  }
  double sub_total = 0;
  for (const double s : subs) sub_total += s;
  return {median(self), median(share), subs.empty() ? 0 : sub_total / static_cast<double>(subs.size())};
}

}  // namespace loadbench
