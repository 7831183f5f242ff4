#include "workloads.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <random>
#include <stdexcept>

#include "api/registry.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "ding/generators.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/ops.hpp"
#include "minor/k2t.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "soak/workload.hpp"
#include "solve/validate.hpp"

namespace loadbench {

namespace {

using lmds::graph::Graph;
using lmds::graph::Vertex;
using lmds::soak::mix_seed;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Inputs

/// One generated input graph with everything the op stream needs about it.
struct Input {
  Graph graph;
  int t = 0;           ///< K_{2,t}-minor-free certificate of its family
  std::string handle;  ///< the content-addressed handle a put will return
  std::string json;    ///< wire encoding {"n":..,"edges":[...]}
};

/// The certified families. Vertex counts are fixed by the caller (only the
/// structure depends on the seed), so totals such as solution_size move
/// little between seeds.
enum Family { kOuterplanar, kTree, kTheta, kCactus, kFamilies };

Input make_input(int family, int n, std::uint64_t seed) {
  Input in;
  switch (family) {
    case kOuterplanar:  // outerplanar = K_{2,3}-minor-free
      in.graph = lmds::graph::gen::random_maximal_outerplanar(n, seed);
      in.t = 3;
      break;
    case kTree:  // forests have no cycle, hence no K_{2,2} minor
      in.graph = lmds::graph::gen::random_tree(n, seed);
      in.t = 2;
      break;
    case kTheta: {  // p parallel paths per link: K_{2,p+1}-minor-free
      const int p = 2 + static_cast<int>(seed % 3);
      in.graph = lmds::graph::gen::theta_chain(std::max(1, (n - 1) / (p + 1)), p);
      in.t = p + 1;
      break;
    }
    default: {  // 1-sums of Ding structures, certified K_{2,cfg.t}-minor-free
      lmds::ding::CactusConfig cfg;
      cfg.pieces = std::max(2, n / 6);
      cfg.max_piece_size = 12;
      cfg.t = 5;
      in.graph = lmds::ding::random_cactus_of_structures(cfg, seed);
      in.t = cfg.t;
      break;
    }
  }
  in.handle = lmds::api::GraphStore::handle_for(lmds::graph::graph_hash(in.graph));
  in.json = lmds::server::encode_graph_json(in.graph);
  return in;
}

/// The from-scratch answer of `solver` on `g`, as the exact response element
/// bytes a server must send for it.
std::string reference_element(const Graph& g, const std::string& solver,
                              const lmds::api::Options& options = {}) {
  lmds::api::Request req;
  req.graph = &g;
  req.options = options;
  const lmds::api::Response r = lmds::api::Registry::instance().run(solver, req);
  if (!r.valid) throw std::logic_error("reference " + solver + " answer is invalid");
  const std::string line =
      lmds::server::encode_solve_result(std::span<const lmds::api::Response>(&r, 1), {});
  const auto parts = lmds::cluster::split_raw_responses(line);
  return std::string(parts->front());
}

bool is_mvc(const std::string& solver) { return solver.ends_with("-mvc"); }

std::string solve_line(std::string_view solver, std::string_view extra,
                       std::span<const std::string* const> graphs) {
  std::string line = "{\"op\":\"solve\",\"solver\":\"";
  line += solver;
  line += '"';
  line += extra;
  line += ",\"graphs\":[";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (i) line += ',';
    line += *graphs[i];
  }
  line += "]}";
  return line;
}

std::string quoted(const std::string& s) { return '"' + s + '"'; }

void put_all(Transport& t, std::span<const Input> inputs) {
  for (const Input& in : inputs) {
    const std::string resp = t.exchange("{\"op\":\"put_graph\",\"graph\":" + in.json + "}");
    if (resp.find("\"handle\":\"" + in.handle + "\"") == std::string::npos) {
      throw std::runtime_error("put_graph failed: " + resp.substr(0, 200));
    }
  }
}

/// A set-up solve: must succeed with the reference answers.
void setup_solve(Transport& t, const std::string& line, std::span<const Expect> expect) {
  Tally tally;
  Diag diag;
  std::vector<std::string_view> elements;
  const std::string resp = t.exchange(line);
  if (!check_solve(resp, expect, tally, diag, elements)) {
    throw std::runtime_error("set-up solve failed: " + tally.first_problem);
  }
}

double answer_size(const std::string& element) {
  return static_cast<double>(parse_solution(element).size());
}

/// Closed-loop op start: every connection walks the same op list from its
/// own offset, so concurrent connections rarely issue the same op at once.
std::size_t op_index(int conn, std::uint64_t k, std::size_t list, std::size_t conns) {
  return (static_cast<std::size_t>(conn) * list / conns + k) % list;
}

/// One timed exchange: appends nothing, returns the response and adds the
/// round trip to `ms`.
std::string timed(Transport& t, const std::string& line, double& ms) {
  const auto t0 = Clock::now();
  std::string resp = t.exchange(line);
  ms += ms_since(t0);
  return resp;
}

// ---------------------------------------------------------------------------
// handle_hot

class HandleHot final : public Workload {
 public:
  const char* name() const override { return "handle_hot"; }
  const char* why() const override {
    return "warm solve-by-handle over both transports: per-request machinery, no decode or "
           "solver work";
  }
  Topology topology() const override { return {false, {}, {false, false, true, true}}; }

  void generate(std::uint64_t seed) override {
    pool_.clear();
    for (int i = 0; i < kPool; ++i) {
      pool_.push_back(make_input(i % kFamilies, 300 + 700 * i / (kPool - 1), mix_seed(seed, i)));
    }
    refs_.assign(kSolvers.size(), {});
    for (std::size_t s = 0; s < kSolvers.size(); ++s) {
      for (const Input& in : pool_) refs_[s].push_back(reference_element(in.graph, kSolvers[s]));
    }
    reference_size_ = 0;
    for (const auto& per_solver : refs_) {
      for (const std::string& ref : per_solver) reference_size_ += answer_size(ref);
    }
    ops_.clear();
    std::mt19937_64 rng(mix_seed(seed, 1u << 20));
    for (std::size_t j = 0; j < kOps; ++j) {
      Op op;
      op.solver = j % kSolvers.size();
      std::vector<int> picks(kPool);
      for (int i = 0; i < kPool; ++i) picks[i] = i;
      std::shuffle(picks.begin(), picks.end(), rng);
      picks.resize(kPerOp);
      std::vector<std::string> handles;
      for (const int i : picks) {
        handles.push_back(quoted(pool_[i].handle));
        op.expect.push_back({&refs_[op.solver][i], &pool_[i].graph, is_mvc(kSolvers[op.solver])});
      }
      std::vector<const std::string*> ptrs;
      for (const std::string& h : handles) ptrs.push_back(&h);
      op.line = solve_line(kSolvers[op.solver], "", ptrs);
      ops_.push_back(std::move(op));
    }
  }

  std::string op_line(int conn, std::uint64_t k) const override {
    return ops_[op_index(conn, k, ops_.size(), topology().http.size())].line;
  }

  void setup(std::span<Transport* const> conns) override {
    put_all(*conns[0], pool_);
    for (std::size_t s = 0; s < kSolvers.size(); ++s) {
      for (int first = 0; first < kPool; first += kPerOp) {
        std::vector<std::string> handles;
        std::vector<Expect> expect;
        for (int i = first; i < first + kPerOp; ++i) {
          handles.push_back(quoted(pool_[i].handle));
          expect.push_back({&refs_[s][i], &pool_[i].graph, is_mvc(kSolvers[s])});
        }
        std::vector<const std::string*> ptrs;
        for (const std::string& h : handles) ptrs.push_back(&h);
        setup_solve(*conns[0], solve_line(kSolvers[s], "", ptrs), expect);
      }
    }
  }

  void run_op(Transport& t, int conn, std::uint64_t k, Tally& tally) const override {
    const Op& op = ops_[op_index(conn, k, ops_.size(), topology().http.size())];
    double ms = 0;
    const std::string resp = timed(t, op.line, ms);
    tally.latency_ms.push_back(ms);
    ++tally.ops;
    Diag diag;
    std::vector<std::string_view> elements;
    if (!check_solve(resp, op.expect, tally, diag, elements)) return;
    if (diag.hits != kPerOp || diag.misses != 0) {
      tally.problem(tally.path_violations, "handle_hot op was not all cache hits");
    }
  }

 private:
  static constexpr int kPool = 64;
  static constexpr int kPerOp = 8;
  static constexpr std::size_t kOps = 1024;
  inline static const std::vector<std::string> kSolvers = {"theorem44", "theorem44-mvc",
                                                           "greedy", "ksv"};
  struct Op {
    std::size_t solver = 0;
    std::string line;
    std::vector<Expect> expect;
  };
  std::vector<Input> pool_;
  std::vector<std::vector<std::string>> refs_;  // [solver][pool index]
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------------
// inline_routed

class InlineRouted final : public Workload {
 public:
  const char* name() const override { return "inline_routed"; }
  const char* why() const override {
    return "inline 8k-vertex graphs through router + 2 workers: JSON parse, decode, hash and "
           "re-dump on the ingest path";
  }
  // Four connections, not two: with two, the p99 sits on a ~1% tail whose
  // share changes from run to run; with four it lies inside the body.
  Topology topology() const override { return {true, {}, {false, false, false, false}}; }

  void generate(std::uint64_t seed) override {
    pool_.clear();
    refs_.clear();
    reference_size_ = 0;
    // Half the pool lands on each worker of the fixed ring, so every seed
    // loads the two workers alike.
    const lmds::cluster::HashRing ring(worker_peers(), 64);  // lmds_serve's --vnodes default
    int per_worker[2] = {0, 0};
    for (std::uint64_t i = 0; pool_.size() < kPool; ++i) {
      Input in = make_input(kOuterplanar, 7700 + 40 * static_cast<int>(pool_.size()), mix_seed(seed, i));
      const std::size_t owner = ring.owner_index(lmds::graph::graph_hash(in.graph));
      if (per_worker[owner] == kPool / 2) continue;
      ++per_worker[owner];
      refs_.push_back(reference_element(in.graph, "theorem44"));
      reference_size_ += answer_size(refs_.back());
      pool_.push_back(std::move(in));
    }
    pairs_.clear();
    std::mt19937_64 rng(mix_seed(seed, 1u << 20));
    for (std::size_t j = 0; j < kOps; ++j) {
      const int a = static_cast<int>(rng() % kPool);
      const int b = static_cast<int>((a + 1 + rng() % (kPool - 1)) % kPool);
      pairs_.emplace_back(a, b);
    }
  }

  std::string op_line(int conn, std::uint64_t k) const override {
    const auto [a, b] = pairs_[op_index(conn, k, pairs_.size(), topology().http.size())];
    const std::string* graphs[] = {&pool_[a].json, &pool_[b].json};
    return solve_line("theorem44", "", graphs);
  }

  void setup(std::span<Transport* const> conns) override {
    // Warms each graph's owner worker: the router places an inline graph by
    // its fingerprint, so later pairs hit the same warm caches.
    for (std::size_t i = 0; i < kPool; ++i) {
      const std::string* graphs[] = {&pool_[i].json};
      const Expect expect[] = {{&refs_[i], &pool_[i].graph, false}};
      setup_solve(*conns[0], solve_line("theorem44", "", graphs), expect);
    }
  }

  void run_op(Transport& t, int conn, std::uint64_t k, Tally& tally) const override {
    const auto [a, b] = pairs_[op_index(conn, k, pairs_.size(), topology().http.size())];
    const std::string* graphs[] = {&pool_[a].json, &pool_[b].json};
    const std::string line = solve_line("theorem44", "", graphs);
    double ms = 0;
    const std::string resp = timed(t, line, ms);
    tally.latency_ms.push_back(ms);
    ++tally.ops;
    const Expect expect[] = {{&refs_[a], &pool_[a].graph, false},
                             {&refs_[b], &pool_[b].graph, false}};
    Diag diag;
    std::vector<std::string_view> elements;
    if (!check_solve(resp, expect, tally, diag, elements)) return;
    if (diag.hits != 2 || diag.misses != 0) {
      tally.problem(tally.path_violations, "inline_routed op was not all cache hits");
    }
  }

 private:
  static constexpr std::size_t kPool = 16;
  static constexpr std::size_t kOps = 1024;
  std::vector<Input> pool_;
  std::vector<std::string> refs_;
  std::vector<std::pair<int, int>> pairs_;
};

// ---------------------------------------------------------------------------
// cold_solve

class ColdSolve final : public Workload {
 public:
  const char* name() const override { return "cold_solve"; }
  const char* why() const override {
    return "uncached solves by handle (algorithm1, greedy, ksv, 64-graph theorem44 batch): "
           "solvers and the multi-shard executor";
  }
  Topology topology() const override { return {false, {}, {false, false}}; }

  void generate(std::uint64_t seed) override {
    inputs_.clear();
    ops_.clear();
    // Index layout of inputs_: algorithm1 graphs, greedy, ksv, then the
    // theorem44 batches. Reserved up front: Expect holds pointers into it.
    const std::size_t total = kAlg1 + 2 * kBig + kBatches * kBatchSize;
    inputs_.reserve(total);
    for (std::size_t i = 0; i < kAlg1; ++i) {
      // Families rotate outerplanar / tree / theta (Algorithm 1 is exercised
      // at each family's own certificate t).
      inputs_.push_back(make_input(static_cast<int>(i % 3),
                                   static_cast<int>(80 + 70 * i / (kAlg1 - 1)), mix_seed(seed, i)));
    }
    // greedy graphs of 2.5k-4.5k vertices, ksv graphs of 2k-4k: their
    // latencies overlap, so the workload's p50 falls inside a dense band
    // instead of in the gap between two op kinds.
    for (std::size_t i = 0; i < 2 * kBig; ++i) {
      const std::size_t j = i % kBig;
      const int n = static_cast<int>((i < kBig ? 2500 : 2000) + 2000 * j / (kBig - 1));
      inputs_.push_back(make_input(j % 2 == 0 ? kOuterplanar : kCactus, n, mix_seed(seed, 100 + i)));
    }
    // Soak-size graphs from soak::make_case, certified families only (its
    // apollonian cases carry no K_{2,t} certificate).
    for (std::uint64_t idx = 0; inputs_.size() < total; ++idx) {
      lmds::soak::GraphCase c = lmds::soak::make_case(mix_seed(seed, 200), idx);
      if (c.certified_t == 0) continue;
      Input in;
      in.graph = std::move(c.graph);
      in.t = c.certified_t;
      in.handle = lmds::api::GraphStore::handle_for(lmds::graph::graph_hash(in.graph));
      in.json = lmds::server::encode_graph_json(in.graph);
      inputs_.push_back(std::move(in));
    }
    refs_.clear();
    refs_.reserve(inputs_.size());
    reference_size_ = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Input& in = inputs_[i];
      if (i < kAlg1) {
        refs_.push_back(reference_element(in.graph, "algorithm1", {{"t", in.t}}));
      } else if (i < kAlg1 + kBig) {
        refs_.push_back(reference_element(in.graph, "greedy"));
      } else if (i < kAlg1 + 2 * kBig) {
        refs_.push_back(reference_element(in.graph, "ksv"));
      } else {
        refs_.push_back(reference_element(in.graph, "theorem44"));
      }
      reference_size_ += answer_size(refs_.back());
    }
    // Kinds rotate in fixed order; each kind walks its own graphs.
    for (std::size_t j = 0; j < 4 * kAlg1; ++j) {
      const std::size_t round = j / 4;
      switch (j % 4) {
        case 0: ops_.push_back(single("algorithm1", round % kAlg1)); break;
        case 1: ops_.push_back(single("greedy", kAlg1 + round % kBig)); break;
        case 2: ops_.push_back(single("ksv", kAlg1 + kBig + round % kBig)); break;
        default: ops_.push_back(batch(round % kBatches)); break;
      }
    }
  }

  std::string op_line(int conn, std::uint64_t k) const override {
    return ops_[op_index(conn, k, ops_.size(), topology().http.size())].line;
  }

  void setup(std::span<Transport* const> conns) override {
    put_all(*conns[0], inputs_);
    // One untimed op of each kind (no_cache, so the response cache stays
    // empty for the timed window).
    for (std::size_t j = 0; j < 4; ++j) setup_solve(*conns[0], ops_[j].line, ops_[j].expect);
  }

  void run_op(Transport& t, int conn, std::uint64_t k, Tally& tally) const override {
    const Op& op = ops_[op_index(conn, k, ops_.size(), topology().http.size())];
    double ms = 0;
    const std::string resp = timed(t, op.line, ms);
    tally.latency_ms.push_back(ms);
    ++tally.ops;
    Diag diag;
    std::vector<std::string_view> elements;
    if (!check_solve(resp, op.expect, tally, diag, elements)) return;
    if (diag.hits != 0) tally.problem(tally.path_violations, "cold_solve op hit the cache");
  }

 private:
  static constexpr std::size_t kAlg1 = 48;
  static constexpr std::size_t kBig = 16;
  static constexpr std::size_t kBatches = 4;
  static constexpr std::size_t kBatchSize = 64;
  static constexpr std::string_view kNoCache = ",\"batch\":{\"no_cache\":true}";

  struct Op {
    std::string line;
    std::vector<Expect> expect;
  };

  Op single(const std::string& solver, std::size_t i) const {
    Op op;
    std::string extra;
    if (solver == "algorithm1") extra = ",\"options\":{\"t\":" + std::to_string(inputs_[i].t) + "}";
    extra += kNoCache;
    const std::string handle = quoted(inputs_[i].handle);
    const std::string* graphs[] = {&handle};
    op.line = solve_line(solver, extra, graphs);
    op.expect.push_back({&refs_[i], &inputs_[i].graph, false});
    return op;
  }

  Op batch(std::size_t b) const {
    Op op;
    std::vector<std::string> handles;
    const std::size_t first = kAlg1 + 2 * kBig + b * kBatchSize;
    for (std::size_t i = first; i < first + kBatchSize; ++i) {
      handles.push_back(quoted(inputs_[i].handle));
      op.expect.push_back({&refs_[i], &inputs_[i].graph, false});
    }
    std::vector<const std::string*> ptrs;
    for (const std::string& h : handles) ptrs.push_back(&h);
    op.line = solve_line("theorem44", kNoCache, ptrs);
    return op;
  }

  std::vector<Input> inputs_;
  std::vector<std::string> refs_;
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------------
// patch_stream

/// A clustered deletion of ~0.25% of g's edges around a BFS centre. Edge
/// deletion keeps a graph outerplanar, so the child keeps the base's
/// certificate. Distinct k give distinct centres (7919 is coprime to the
/// vertex counts used), so no child repeats within a connection's stream.
lmds::graph::GraphPatch clustered_deletion(const Graph& g, std::uint64_t seed, std::uint64_t k) {
  const int n = g.num_vertices();
  const std::size_t target = std::max(1, g.num_edges() / 400);
  std::mt19937_64 rng(mix_seed(seed, k));
  const auto center = static_cast<Vertex>((seed % static_cast<std::uint64_t>(n) + k * 7919) %
                                          static_cast<std::uint64_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> order{center};
  seen[static_cast<std::size_t>(center)] = 1;
  lmds::graph::GraphPatch p;
  for (std::size_t i = 0; i < order.size() && p.del.size() < target; ++i) {
    const Vertex u = order[i];
    for (const Vertex w : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        order.push_back(w);
      }
      if (u < w && (rng() & 1) && p.del.size() < target) p.del.push_back({u, w});
    }
  }
  std::sort(p.del.begin(), p.del.end());
  return p;
}

/// Domination on `base` minus the (sorted, u < v) deleted edges.
bool dominates_after_deletion(const Graph& base, const std::vector<lmds::graph::Edge>& del,
                              const std::vector<Vertex>& solution) {
  const auto n = static_cast<std::size_t>(base.num_vertices());
  std::vector<char> touched(n, 0);
  for (const auto& e : del) touched[static_cast<std::size_t>(e.u)] = touched[static_cast<std::size_t>(e.v)] = 1;
  std::vector<char> dominated(n, 0);
  for (const Vertex v : solution) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return false;
    dominated[static_cast<std::size_t>(v)] = 1;
    for (const Vertex w : base.neighbors(v)) {
      if (touched[static_cast<std::size_t>(v)] && touched[static_cast<std::size_t>(w)] &&
          std::binary_search(del.begin(), del.end(),
                             lmds::graph::Edge{std::min(v, w), std::max(v, w)})) {
        continue;
      }
      dominated[static_cast<std::size_t>(w)] = 1;
    }
  }
  return std::all_of(dominated.begin(), dominated.end(), [](char d) { return d != 0; });
}

class PatchStream final : public Workload {
 public:
  const char* name() const override { return "patch_stream"; }
  const char* why() const override {
    return "patch_graph -> solve -> drop_graph on 50k-vertex bases: store writes, incremental "
           "re-solve, cache inserts and evictions";
  }
  // The store and cache are capped so unpinned 1.2 MB children and their
  // cached answers cannot grow the server past a few hundred MB.
  Topology topology() const override {
    return {false, {"--store-capacity", "64", "--cache-capacity", "256"}, {false, false}};
  }

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    bases_.clear();
    refs_.clear();
    reference_size_ = 0;
    for (int c = 0; c < kConns; ++c) {
      bases_.push_back(make_input(kOuterplanar, 50000, mix_seed(seed, c)));
      refs_.push_back(reference_element(bases_.back().graph, kSolver));
      reference_size_ += answer_size(refs_.back());
    }
  }

  std::string op_line(int conn, std::uint64_t k) const override {
    return patch_line(conn, patch_for(conn, k));
  }

  void setup(std::span<Transport* const> conns) override {
    for (int c = 0; c < kConns; ++c) {
      // Each connection puts (and so pins) its own base.
      put_all(*conns[c], std::span<const Input>(&bases_[c], 1));
      const std::string handle = quoted(bases_[c].handle);
      const std::string* graphs[] = {&handle};
      const Expect expect[] = {{&refs_[c], &bases_[c].graph, false}};
      setup_solve(*conns[c], solve_line(kSolver, "", graphs), expect);
    }
  }

  void run_op(Transport& t, int conn, std::uint64_t k, Tally& tally) const override {
    const lmds::graph::GraphPatch patch = patch_for(conn, k);
    double ms = 0;
    ++tally.ops;
    tally.answer_hash.push_back(0);
    const std::string patched = timed(t, patch_line(conn, patch), ms);
    const std::size_t at = patched.find("\"handle\":\"");
    if (!patched.starts_with("{\"ok\":true") || at == std::string::npos) {
      tally.latency_ms.push_back(ms);
      tally.problem(tally.failed, "patch_graph failed: " + patched.substr(0, 200));
      return;
    }
    const std::string child = patched.substr(at + 10, 17);
    if (patched.find("\"new\":true") == std::string::npos) {
      tally.problem(tally.path_violations, "patch_stream child already existed");
    }
    const std::string handle = quoted(child);
    const std::string* graphs[] = {&handle};
    const std::string solved = timed(t, solve_line(kSolver, "", graphs), ms);
    const std::string dropped =
        timed(t, "{\"op\":\"drop_graph\",\"handle\":" + handle + "}", ms);
    tally.latency_ms.push_back(ms);

    const Expect expect[] = {{}};
    Diag diag;
    std::vector<std::string_view> elements;
    if (!check_solve(solved, expect, tally, diag, elements)) return;
    if (!dominates_after_deletion(bases_[conn].graph, patch.del, parse_solution(elements[0]))) {
      tally.problem(tally.wrong, "patch_stream answer does not dominate the child");
      return;
    }
    tally.answer_hash.back() = fnv1a(elements[0]);
    if (diag.incremental != 1) {
      tally.problem(tally.path_violations, "patch_stream solve was not incremental");
    }
    if (!dropped.starts_with("{\"ok\":true")) {
      tally.problem(tally.failed, "drop_graph failed: " + dropped.substr(0, 200));
    }
  }

  /// Re-derives a spread sample of the window's answers from scratch:
  /// apply_patch in-process, Registry::run, byte-compare.
  void post_check(std::span<const Tally> tallies, Tally& out) const override {
    for (int c = 0; c < kConns && c < static_cast<int>(tallies.size()); ++c) {
      const std::vector<std::uint64_t>& hashes = tallies[c].answer_hash;
      const std::size_t step = std::max<std::size_t>(1, hashes.size() / kSamplesPerConn);
      for (std::size_t j = 0; j < hashes.size(); j += step) {
        if (hashes[j] == 0) continue;  // already counted failed or wrong
        const std::uint64_t k = tallies[c].first_k + j;
        const Graph child = lmds::graph::apply_patch(bases_[c].graph, patch_for(c, k)).graph;
        if (fnv1a(reference_element(child, kSolver)) != hashes[j]) {
          out.problem(out.wrong, "patch_stream answer differs from the from-scratch solve");
        }
      }
    }
  }

 private:
  static constexpr int kConns = 2;
  static constexpr std::size_t kSamplesPerConn = 12;
  inline static const std::string kSolver = "theorem44";

  lmds::graph::GraphPatch patch_for(int conn, std::uint64_t k) const {
    return clustered_deletion(bases_[conn].graph, mix_seed(seed_, 1000 + conn), k);
  }
  std::string patch_line(int conn, const lmds::graph::GraphPatch& p) const {
    return "{\"op\":\"patch_graph\",\"handle\":" + quoted(bases_[conn].handle) + "," +
           lmds::server::encode_patch_members(p) + "}";
  }

  std::uint64_t seed_ = 0;
  std::vector<Input> bases_;
  std::vector<std::string> refs_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Transport, checker, digest

SocketTransport::SocketTransport(int port, bool http)
    : fd_(lmds::server::tcp_connect("127.0.0.1", port, 5000)), http_(http), reader_(fd_) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to port " + std::to_string(port));
  // A wedged server fails the op in bounded time instead of hanging the run.
  lmds::server::set_io_timeout(fd_, 60000);
}

SocketTransport::~SocketTransport() { lmds::server::close_fd(fd_); }

std::string SocketTransport::exchange(const std::string& line) {
  if (!http_) {
    if (!lmds::server::send_all(fd_, line + "\n")) throw std::runtime_error("send failed");
    std::optional<std::string> resp = reader_.next_line(256u << 20);
    if (!resp) throw std::runtime_error("connection closed");
    return *std::move(resp);
  }
  constexpr std::string_view kSolve = "{\"op\":\"solve\",";
  if (!std::string_view(line).starts_with(kSolve)) {
    throw std::logic_error("the HTTP transport only carries solve requests");
  }
  // The route names the verb, so the body is the request minus its "op".
  const std::string_view rest = std::string_view(line).substr(kSolve.size());
  std::string request = "POST /v2/solve HTTP/1.1\r\nHost: lmds\r\nContent-Length: " +
                        std::to_string(rest.size() + 1) + "\r\n\r\n{";
  request += rest;
  if (!lmds::server::send_all(fd_, request)) throw std::runtime_error("send failed");
  std::optional<std::string> status = reader_.next_line(1 << 16);
  if (!status) throw std::runtime_error("connection closed");
  std::size_t length = 0;
  while (true) {
    std::optional<std::string> header = reader_.next_line(1 << 16);
    if (!header) throw std::runtime_error("connection closed inside headers");
    if (header->empty()) break;
    if (header->rfind("Content-Length:", 0) == 0) {
      length = std::strtoull(header->c_str() + 15, nullptr, 10);
    }
  }
  std::optional<std::string> resp = reader_.read_exact(length);
  if (!resp) throw std::runtime_error("connection closed inside body");
  return *std::move(resp);
}

void Tally::problem(std::uint64_t& counter, const std::string& what) {
  ++counter;
  if (first_problem.empty()) first_problem = what;
}

void Tally::merge(const Tally& o) {
  ops += o.ops;
  failed += o.failed;
  wrong += o.wrong;
  path_violations += o.path_violations;
  diag.graphs += o.diag.graphs;
  diag.hits += o.diag.hits;
  diag.misses += o.diag.misses;
  diag.evictions += o.diag.evictions;
  diag.incremental += o.diag.incremental;
  diag.dirty += o.diag.dirty;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  if (first_problem.empty()) first_problem = o.first_problem;
}

std::vector<Vertex> parse_solution(std::string_view element) {
  std::vector<Vertex> out;
  constexpr std::string_view kKey = "\"solution\":[";
  const std::size_t at = element.find(kKey);
  if (at == std::string_view::npos) return out;
  const char* p = element.data() + at + kKey.size();
  const char* end = element.data() + element.size();
  while (p < end && *p != ']') {
    Vertex v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) break;
    out.push_back(v);
    p = next;
    if (p < end && *p == ',') ++p;
  }
  return out;
}

bool check_solve(std::string_view response, std::span<const Expect> expect, Tally& tally,
                 Diag& diag, std::vector<std::string_view>& elements) {
  diag = {};
  if (!response.starts_with("{\"ok\":true,\"op\":\"solve\"")) {
    tally.problem(tally.failed, "solve failed: " + std::string(response.substr(0, 200)));
    return false;
  }
  const auto parts = lmds::cluster::split_raw_responses(response);
  const std::size_t at = response.rfind("\"diag\":");
  if (!parts || parts->size() != expect.size() || at == std::string_view::npos) {
    tally.problem(tally.wrong, "malformed solve response");
    return false;
  }
  elements = *parts;
  try {
    const lmds::server::JsonValue d =
        lmds::server::json_parse(response.substr(at + 7, response.size() - 1 - (at + 7)));
    const auto count = [&](const char* key) -> std::uint64_t {
      const lmds::server::JsonValue* v = d.find(key);
      return v ? static_cast<std::uint64_t>(v->as_int()) : 0;
    };
    diag.graphs = expect.size();
    diag.hits = count("cache_hits");
    diag.misses = count("cache_misses");
    diag.evictions = count("cache_evictions");
    diag.incremental = count("incremental_solves");
    diag.dirty = count("incremental_dirty");
  } catch (const lmds::server::JsonError&) {
    tally.problem(tally.wrong, "malformed diag");
    return false;
  }
  tally.diag.graphs += diag.graphs;
  tally.diag.hits += diag.hits;
  tally.diag.misses += diag.misses;
  tally.diag.evictions += diag.evictions;
  tally.diag.incremental += diag.incremental;
  tally.diag.dirty += diag.dirty;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (expect[i].element && *expect[i].element != elements[i]) {
      tally.problem(tally.wrong, "answer differs from the reference");
      return false;
    }
    if (!expect[i].graph) continue;
    const Graph& g = *expect[i].graph;
    const std::vector<Vertex> solution = parse_solution(elements[i]);
    const bool in_range = std::all_of(solution.begin(), solution.end(),
                                      [&](Vertex v) { return g.has_vertex(v); });
    if (!in_range || !(expect[i].mvc ? lmds::solve::is_vertex_cover(g, solution)
                                     : lmds::solve::is_dominating_set(g, solution))) {
      tally.problem(tally.wrong, "answer is not a valid solution");
      return false;
    }
  }
  return true;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Workload::post_check(std::span<const Tally>, Tally&) const {}

std::vector<std::string> worker_peers() {
  std::vector<std::string> peers;
  for (const int port : kWorkerPorts) peers.push_back("127.0.0.1:" + std::to_string(port));
  return peers;
}

std::uint64_t Workload::stream_digest() const {
  std::uint64_t h = fnv1a(name());
  const int conns = static_cast<int>(topology().http.size());
  for (int c = 0; c < conns; ++c) {
    for (std::uint64_t k = 0; k < 16; ++k) h = fnv1a(op_line(c, k), h);
  }
  return h;
}

std::string Workload::check_certificates(std::uint64_t seed) {
  for (int family = 0; family < kFamilies; ++family) {
    for (int i = 0; i < 4; ++i) {
      const Input in = make_input(family, 20 + 6 * i, mix_seed(seed, 50 + i));
      if (!lmds::minor::is_k2t_minor_free(in.graph, in.t)) {
        return "family " + std::to_string(family) + " instance " + std::to_string(i) +
               " has a K_{2," + std::to_string(in.t) + "} minor";
      }
    }
  }
  // The patch_stream children: clustered deletions of an outerplanar base.
  const Input base = make_input(kOuterplanar, 40, mix_seed(seed, 60));
  for (std::uint64_t k = 0; k < 4; ++k) {
    const Graph child = lmds::graph::apply_patch(base.graph, clustered_deletion(base.graph, seed, k)).graph;
    if (!lmds::minor::is_k2t_minor_free(child, base.t)) return "a patched child lost its certificate";
  }
  // soak::make_case's certified cases, as cold_solve uses them.
  for (std::uint64_t idx = 0; idx < 10; ++idx) {
    const lmds::soak::GraphCase c = lmds::soak::make_case(mix_seed(seed, 200), idx);
    if (c.certified_t > 0 && !lmds::minor::is_k2t_minor_free(c.graph, c.certified_t)) {
      return "soak case " + std::to_string(idx) + " lost its certificate";
    }
  }
  return {};
}

std::vector<std::unique_ptr<Workload>> make_workloads() {
  std::vector<std::unique_ptr<Workload>> out;
  out.push_back(std::make_unique<HandleHot>());
  out.push_back(std::make_unique<InlineRouted>());
  out.push_back(std::make_unique<ColdSolve>());
  out.push_back(std::make_unique<PatchStream>());
  return out;
}

}  // namespace loadbench
