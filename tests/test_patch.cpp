// Differential test layer for the dynamic-graph serving path: graph patches
// (graph::apply_patch), the GraphStore's derived handles + lineage records +
// the eviction protection of shared parents, the executor's ball-granular
// incremental re-solve, the patch_graph protocol verb over both transports,
// and the soak workload's patch generator / malformed-patch fuzz kind.
//
// The load-bearing suite is IncrementalDifferential: for EVERY registered
// solver and every workload family, a solve against a patched handle must be
// field-for-field identical to a fresh full solve of the patched graph —
// solvers with a locality radius through the incremental splice, everything
// else through the (counted) full fallback. IncrementalValidity holds the
// splice's local validity re-check to the full check on answers that can be
// invalid.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/executor.hpp"
#include "api/graph_store.hpp"
#include "api/registry.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/hash.hpp"
#include "graph/ops.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"
#include "soak/fuzz.hpp"
#include "soak/workload.hpp"

namespace lmds {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphPatch;

// ---------------------------------------------------------------------------
// graph::apply_patch

TEST(ApplyPatch, AddsDeletesAndGrows) {
  const Graph parent = graph::gen::path(4);  // 0-1-2-3
  GraphPatch p;
  p.add = {{3, 0}, {5, 4}};  // unordered endpoints on purpose
  p.del = {{1, 2}};
  p.n = 7;
  const graph::PatchedGraph out = graph::apply_patch(parent, p);
  EXPECT_EQ(out.graph.num_vertices(), 7);
  EXPECT_TRUE(out.graph.has_edge(0, 3));
  EXPECT_TRUE(out.graph.has_edge(4, 5));
  EXPECT_FALSE(out.graph.has_edge(1, 2));
  EXPECT_TRUE(out.graph.has_edge(0, 1));  // untouched edges survive
  EXPECT_TRUE(out.graph.has_edge(2, 3));
  EXPECT_EQ(out.graph.degree(6), 0);  // n-growth allocates isolated vertices
  // The recorded lineage lists are normalized: u < v, sorted.
  EXPECT_EQ(out.added, (std::vector<Edge>{{0, 3}, {4, 5}}));
  EXPECT_EQ(out.removed, (std::vector<Edge>{{1, 2}}));
}

GraphPatch edits(std::vector<Edge> add, std::vector<Edge> del, int n = -1) {
  return {.add = std::move(add), .del = std::move(del), .n = n};
}

// The naive reference: edit an adjacency list, rebuild through the
// validating constructor.
Graph rebuild(const Graph& parent, const GraphPatch& p) {
  int n = std::max(parent.num_vertices(), p.n);
  for (const Edge& e : p.add) n = std::max(n, std::max(e.u, e.v) + 1);
  std::vector<std::vector<graph::Vertex>> adj(static_cast<std::size_t>(n));
  for (const Edge& e : parent.edges()) {
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (const Edge& e : p.add) {
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (const Edge& e : p.del) {
    std::erase(adj[static_cast<std::size_t>(e.u)], e.v);
    std::erase(adj[static_cast<std::size_t>(e.v)], e.u);
  }
  return Graph(adj);
}

struct PatchCase {
  std::string name;
  Graph parent;
  GraphPatch patch;
};

/// Hand-picked edits, one soak patch per family and seeded random ones.
std::vector<PatchCase> patch_table() {
  std::vector<PatchCase> cases = {
      {"grid", graph::gen::grid(5, 5), edits({{0, 7}, {13, 21}}, {{0, 1}, {12, 13}})},
      {"new vertices", graph::gen::path(6), edits({{5, 8}, {9, 7}, {0, 10}}, {{2, 3}})},
      {"n above every endpoint", graph::gen::path(6), edits({{0, 5}}, {}, 12)},
      {"n above new vertices", graph::gen::cycle(5), edits({{1, 6}}, {{0, 4}}, 9)},
      {"adds and deletes at one vertex", graph::gen::grid(5, 5),
       edits({{12, 0}, {12, 24}, {12, 3}}, {{12, 13}, {7, 12}, {11, 12}})},
      {"first and last vertex", graph::gen::grid(4, 4),
       edits({{0, 15}, {0, 10}}, {{0, 1}, {14, 15}})},
      {"adjacent touched rows", graph::gen::path(10),
       edits({{3, 5}, {4, 6}, {2, 7}}, {{4, 5}, {5, 6}})},
      {"every row touched", graph::gen::cycle(6), edits({{0, 2}, {1, 3}, {4, 0}, {5, 3}}, {})},
      {"empty patch", graph::gen::grid(3, 3), {}},
      {"empty patch on the empty graph", Graph(), {}},
      {"growth of the empty graph", Graph(), edits({{1, 3}}, {}, 5)},
  };
  for (std::uint64_t family = 0; family < soak::kFamilies; ++family) {
    soak::GraphCase c = soak::make_case(/*run_seed=*/11, family);
    const GraphPatch p = soak::make_patch(c.graph, soak::mix_seed(11, family), 12);
    cases.push_back({c.family, std::move(c.graph), p});
  }
  // Seeded random graphs with random edits, some naming new vertices.
  std::mt19937_64 rng(2026);
  for (int i = 0; i < 200; ++i) {
    const int n = 1 + static_cast<int>(rng() % 30);
    Graph parent = graph::gen::random_connected(n, static_cast<int>(rng() % 10), rng);
    GraphPatch p = soak::make_patch(parent, rng(), static_cast<int>(rng() % 8));
    if (rng() % 3 == 0) {
      const auto old_end = static_cast<graph::Vertex>(rng() % static_cast<std::uint64_t>(n));
      p.add.push_back({old_end, static_cast<graph::Vertex>(n + rng() % 3)});
    }
    if (rng() % 4 == 0) p.n = n + 4;
    cases.push_back({"random " + std::to_string(i), std::move(parent), std::move(p)});
  }
  return cases;
}

TEST(ApplyPatch, MatchesFromScratchRebuild) {
  // The row-range construction (block copies of untouched rows, a merge per
  // touched row) must equal the naive rebuild, hash included.
  for (const PatchCase& c : patch_table()) {
    const Graph patched = graph::apply_patch(c.parent, c.patch).graph;
    const Graph want = rebuild(c.parent, c.patch);
    EXPECT_EQ(patched, want) << c.name;
    EXPECT_EQ(graph::graph_hash(patched), graph::graph_hash(want)) << c.name;
  }
}

TEST(ApplyPatch, RejectsInconsistentEdits) {
  const Graph parent = graph::gen::path(4);
  const auto rejects = [&](GraphPatch p) {
    EXPECT_THROW((void)graph::apply_patch(parent, p), std::invalid_argument);
  };
  rejects({.add = {{2, 2}}, .del = {}, .n = -1});          // self-loop
  rejects({.add = {{0, 2}, {2, 0}}, .del = {}, .n = -1});  // duplicate (orientation-blind)
  rejects({.add = {{0, 1}}, .del = {}, .n = -1});          // add of a present edge
  rejects({.add = {}, .del = {{0, 2}}, .n = -1});          // del of an absent edge
  rejects({.add = {{0, 2}}, .del = {{0, 2}}, .n = -1});    // add ∩ del
  rejects({.add = {{-1, 2}}, .del = {}, .n = -1});         // negative endpoint
  rejects({.add = {}, .del = {}, .n = 2});                 // n may only grow
  rejects({.add = {}, .del = {{0, 9}}, .n = -1});          // del endpoint out of range
}

// ---------------------------------------------------------------------------
// GraphStore: patch handles, lineage, eviction protection

TEST(GraphStorePatch, DerivesContentAddressedChild) {
  api::GraphStore store(8);
  const auto parent = store.put(graph::gen::path(6));
  GraphPatch p;
  p.add = {{0, 5}};
  const auto child = store.patch(parent.handle, p);
  EXPECT_TRUE(child.put.inserted);
  EXPECT_EQ(child.parent, parent.handle);
  EXPECT_EQ(child.put.handle,
            api::GraphStore::handle_for(graph::graph_hash(graph::gen::cycle(6))));
  // Content-addressed: the same patch again re-pins the same entry.
  const auto again = store.patch(parent.handle, p);
  EXPECT_FALSE(again.put.inserted);
  EXPECT_EQ(again.put.handle, child.put.handle);

  const auto lineage = store.lineage(child.put.handle);
  ASSERT_NE(lineage, nullptr);
  EXPECT_EQ(lineage->parent_hash, parent.hash);
  EXPECT_EQ(lineage->added, (std::vector<Edge>{{0, 5}}));
  EXPECT_TRUE(lineage->removed.empty());
  ASSERT_NE(lineage->parent, nullptr);
  EXPECT_EQ(*lineage->parent, graph::gen::path(6));
  // put() handles carry no lineage; unknown handles resolve to none.
  EXPECT_EQ(store.lineage(parent.handle), nullptr);
  EXPECT_EQ(store.lineage("gdeadbeefdeadbeef"), nullptr);

  const auto stats = store.stats();
  EXPECT_EQ(stats.patches, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(GraphStorePatch, UnknownParentThrows) {
  api::GraphStore store(4);
  GraphPatch p;
  p.add = {{0, 2}};
  EXPECT_THROW((void)store.patch("gdeadbeefdeadbeef", p), api::UnknownGraphHandle);
  // Inconsistent edits surface as apply_patch's invalid_argument.
  const auto parent = store.put(graph::gen::path(4));
  GraphPatch bad;
  bad.del = {{0, 3}};  // not an edge of the path
  EXPECT_THROW((void)store.patch(parent.handle, bad), std::invalid_argument);
}

TEST(GraphStorePatch, ChildHandleIsTheGraphHashOfTheChild) {
  // patch() derives the child's hash from the parent's and the edit alone;
  // on every case of the table it must be graph_hash of the child itself.
  for (const PatchCase& c : patch_table()) {
    api::GraphStore store(4);
    const auto parent = store.put(c.parent);
    const auto child = store.patch(parent.handle, c.patch);
    const Graph want = graph::apply_patch(c.parent, c.patch).graph;
    EXPECT_EQ(child.put.handle, api::GraphStore::handle_for(graph::graph_hash(want))) << c.name;
    EXPECT_EQ(child.put.hash, graph::graph_hash(want)) << c.name;
    const auto stored = store.get(child.put.handle);
    ASSERT_NE(stored, nullptr) << c.name;
    EXPECT_EQ(*stored, want) << c.name;
  }
}

TEST(PatchSession, SeededChainsKeepExactAddresses) {
  // 200 chains of depth 3-5 over the five soak families, through the wire:
  // every child's handle is graph_hash of the child, "new" is true exactly
  // when the child was not stored yet, a no-op patch answers its parent and
  // a patch undoing the last one answers the grandparent.
  server::CoreOptions opts;
  opts.store_capacity = 4096;  // every chain's graphs stay resolvable
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);
  std::set<std::string> stored;
  std::mt19937_64 rng(2028);
  int grown = 0, noops = 0, restores = 0, new_vertex_edges = 0, deletions = 0;
  for (std::uint64_t chain = 0; chain < 200; ++chain) {
    Graph base = soak::make_case(/*run_seed=*/28, chain).graph;
    const server::JsonValue put = server::json_parse(session.handle_line(
        "{\"op\":\"put_graph\",\"graph\":" + server::encode_graph_json(base) + "}"));
    ASSERT_TRUE(put.find("ok")->as_bool());
    std::vector<std::pair<std::string, Graph>> line{{put.find("handle")->as_string(), base}};
    stored.insert(line.back().first);
    GraphPatch last;
    const int depth = 3 + static_cast<int>(chain % 3);
    for (int step = 0; step < depth; ++step) {
      const Graph& g = line.back().second;
      const int n = g.num_vertices();
      GraphPatch p;
      std::string expect_handle;  // set when the child is an ancestor
      // Kinds rotate through this order, so an undo follows a plain edit.
      constexpr int kOrder[] = {0, 4, 3, 1, 2};
      switch (kOrder[(chain + static_cast<std::uint64_t>(step)) % 5]) {
        case 0:  // additions and deletions
          p = soak::make_patch(g, rng(), 1 + static_cast<int>(rng() % 6));
          break;
        case 1:  // growth through "n", plus an edge to one of the new vertices
          p = soak::make_patch(g, rng(), 1 + static_cast<int>(rng() % 3));
          p.n = n + 1 + static_cast<int>(rng() % 3);
          p.add.push_back({static_cast<graph::Vertex>(rng() % static_cast<std::uint64_t>(n)),
                           static_cast<graph::Vertex>(p.n - 1)});
          break;
        case 2:  // an edge to a vertex past the end, without "n"
          p.add.push_back({static_cast<graph::Vertex>(rng() % static_cast<std::uint64_t>(n)),
                           static_cast<graph::Vertex>(n + static_cast<int>(rng() % 2))});
          break;
        case 3:  // the no-op patch
          expect_handle = line.back().first;
          ++noops;
          break;
        default:  // undo the last patch, unless it grew the vertex set
          if (line.size() >= 2 && line[line.size() - 2].second.num_vertices() == n) {
            p.add = last.del;
            p.del = last.add;
            expect_handle = line[line.size() - 2].first;
            ++restores;
          } else {
            p = soak::make_patch(g, rng(), 2);
          }
          break;
      }
      const Graph want = graph::apply_patch(g, p).graph;
      grown += want.num_vertices() > n ? 1 : 0;
      deletions += p.del.empty() ? 0 : 1;
      new_vertex_edges += std::any_of(p.add.begin(), p.add.end(),
                                      [&](const Edge& e) { return e.v >= n; });
      const std::string request = "{\"op\":\"patch_graph\",\"handle\":\"" + line.back().first +
                                  "\"," + server::encode_patch_members(p) + "}";
      const server::JsonValue reply = server::json_parse(session.handle_line(request));
      ASSERT_TRUE(reply.find("ok")->as_bool()) << request;
      const std::string handle = reply.find("handle")->as_string();
      EXPECT_EQ(handle, api::GraphStore::handle_for(graph::graph_hash(want))) << request;
      if (!expect_handle.empty()) {
        EXPECT_EQ(handle, expect_handle) << request;
      }
      EXPECT_EQ(reply.find("new")->as_bool(), !stored.contains(handle)) << request;
      const auto child = core.store().get(handle);
      ASSERT_NE(child, nullptr);
      EXPECT_EQ(*child, want) << request;
      stored.insert(handle);
      line.emplace_back(handle, want);
      last = p;
    }
  }
  // Every kind of edit occurred.
  EXPECT_GT(grown, 0);
  EXPECT_GT(noops, 0);
  EXPECT_GT(restores, 0);
  EXPECT_GT(new_vertex_edges, 0);
  EXPECT_GT(deletions, 0);
  const server::JsonValue stats = server::json_parse(session.handle_line("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.find("store")->find("hash_collisions"), nullptr);
}

TEST(GraphStoreEviction, ParentOfDerivedHandleIsNotEvicted) {
  // Regression: LRU eviction used to treat an unpinned parent like any other
  // entry, severing a live child's lineage (and with it the incremental
  // path). A parent with stored children must survive until the last child
  // leaves the store.
  api::GraphStore store(2);
  const auto a = store.put(graph::gen::path(8));
  GraphPatch p;
  p.add = {{0, 7}};
  const auto b = store.patch(a.handle, p);
  ASSERT_TRUE(b.put.inserted);
  ASSERT_TRUE(store.drop(a.handle));  // A unpinned, but B still derives from it

  // At capacity: A is eviction-protected (child B), B is pinned -> full.
  EXPECT_THROW((void)store.put(graph::gen::cycle(5)), api::GraphStoreFull);
  EXPECT_NE(store.get(a.handle), nullptr);

  // Dropping B makes B evictable; A stays protected until B is *evicted*.
  ASSERT_TRUE(store.drop(b.put.handle));
  const auto c = store.put(graph::gen::cycle(5));  // evicts B, releases A
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(store.get(b.put.handle), nullptr);
  EXPECT_NE(store.get(a.handle), nullptr);

  // With its last child gone, A is ordinary unpinned prey again.
  const auto d = store.put(graph::gen::grid(3, 3));
  EXPECT_TRUE(d.inserted);
  EXPECT_EQ(store.get(a.handle), nullptr);
  EXPECT_EQ(store.stats().evictions, 2u);
}

// ---------------------------------------------------------------------------
// Executor: ball-granular incremental re-solve, differential against full

struct PatchedFixture {
  api::GraphStore store{64};
  std::shared_ptr<const Graph> parent;
  std::shared_ptr<const Graph> child;
  std::shared_ptr<const api::PatchLineage> lineage;

  explicit PatchedFixture(Graph g, const GraphPatch& p) {
    const auto put = store.put(std::move(g));
    parent = store.get(put.handle);
    const auto patched = store.patch(put.handle, p);
    child = store.get(patched.put.handle);
    lineage = store.lineage(patched.put.handle);
  }
};

// Solves parent (priming the cache), then child with lineage attached, both
// under `over`, and checks the child response equals a fresh full solve by
// `reg` — field for field, diagnostics included. Returns the child batch's
// diagnostics.
api::BatchDiagnostics check_differential(api::BatchExecutor& ex, const PatchedFixture& fx,
                                         const std::string& solver, const api::Request& req,
                                         const api::BatchOverrides& over = {},
                                         const api::Registry& reg = api::Registry::instance()) {
  const Graph* pg = fx.parent.get();
  (void)ex.run_batch(solver, std::span<const Graph* const>(&pg, 1), req, over);

  const Graph* cg = fx.child.get();
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {fx.lineage};
  api::BatchDiagnostics diag;
  const std::vector<api::Response> got =
      ex.run_batch(solver, std::span<const Graph* const>(&cg, 1), req, over, &diag, {},
                   {lineages.data(), lineages.size()});

  api::Request full = req;
  full.graph = cg;
  const api::Response want = reg.run(solver, full);
  EXPECT_EQ(got.at(0), want) << solver << ": incremental result diverged from full solve";
  return diag;
}

TEST(IncrementalDifferential, EverySolverEveryFamilyMatchesFullSolve) {
  const api::Registry& reg = api::Registry::instance();
  for (const std::string& solver : reg.names()) {
    const int locality = reg.at(solver).locality_radius;
    for (std::uint64_t family = 0; family < soak::kFamilies; ++family) {
      const soak::GraphCase c = soak::make_case(/*run_seed=*/7, family);
      const GraphPatch p = soak::make_patch(c.graph, soak::mix_seed(7, family ^ 0xED17ULL), 3);
      if (p.add.empty() && p.del.empty()) continue;
      PatchedFixture fx(c.graph, p);
      api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 256}, reg);
      api::Request req;  // defaults for every declared option
      const api::BatchDiagnostics diag = check_differential(ex, fx, solver, req);
      if (locality >= 0) {
        EXPECT_EQ(diag.incremental_solves, 1u) << solver << " family " << c.family;
        EXPECT_GT(diag.incremental_dirty, 0u) << solver << " family " << c.family;
      } else {
        EXPECT_EQ(diag.incremental_solves, 0u) << solver << " family " << c.family;
        EXPECT_EQ(diag.incremental_fallbacks, 1u) << solver << " family " << c.family;
      }
    }
  }
}

TEST(IncrementalDifferential, VertexGrowthIsReDecided) {
  // New vertices have no parent decision to inherit — they are dirty by
  // definition, even when no edit touches the old vertex range.
  GraphPatch p;
  p.add = {{5, 8}};
  p.n = 10;  // vertex 9 is isolated in the child
  PatchedFixture fx(graph::gen::path(6), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  const api::BatchDiagnostics diag = check_differential(ex, fx, "theorem44", req);
  EXPECT_EQ(diag.incremental_solves, 1u);
  EXPECT_GE(diag.incremental_dirty, 4u);  // 8, 9 and the ball around {5,8}
}

// Two radius-1 rules whose answers need not dominate or cover, so a
// splice's validity is really in question. "deg v >= 2" can change only at
// an edited endpoint; "v lies on a triangle" also one hop away from it.
bool degree_two_joins(const Graph& g, graph::Vertex v) { return g.degree(v) >= 2; }

bool triangle_joins(const Graph& g, graph::Vertex v) {
  const auto nb = g.neighbors(v);
  for (std::size_t i = 0; i < nb.size(); ++i) {
    for (std::size_t j = i + 1; j < nb.size(); ++j) {
      if (g.has_edge(nb[i], nb[j])) return true;
    }
  }
  return false;
}

// A test-local registry with each rule as an MDS and an MVC solver, named
// "<rule>-<problem>".
template <bool (*Joins)(const Graph&, graph::Vertex)>
void add_rule_solvers(api::Registry& reg, const std::string& rule_name) {
  const auto solve = [](const api::SolveContext& ctx) {
    api::SolverOutput out;
    for (graph::Vertex v = 0; v < ctx.graph.num_vertices(); ++v) {
      if (Joins(ctx.graph, v)) out.solution.push_back(v);
    }
    return out;
  };
  for (const api::Problem problem : {api::Problem::Mds, api::Problem::Mvc}) {
    reg.add({.name = rule_name + "-" + std::string(api::to_string(problem)),
             .problem = problem,
             .modes = {api::Mode::Centralized},
             .summary = rule_name,
             .params = {},
             .locality_radius = 1,
             .decide = api::decide_each<Joins>},
            solve);
  }
}

api::Registry validity_registry() {
  api::Registry reg;
  add_rule_solvers<degree_two_joins>(reg, "degree-two");
  add_rule_solvers<triangle_joins>(reg, "triangle");
  return reg;
}

TEST(IncrementalValidity, ValidityEqualsTheFullCheck) {
  // Each case names the parent's and the child's validity under its rule;
  // the child must equal a full solve field for field, and be answered
  // incrementally.
  struct Case {
    const char* name;
    std::string solver;  // "<rule>-<problem>"
    Graph parent;
    GraphPatch patch;
    bool parent_valid;
    bool child_valid;
  };
  const Graph lone = graph::gen::path(1);
  const Graph k2 = graph::gen::path(2);
  // Triangles {0,1,2}, {0,4,5} and {1,6,7}, and 3 pendant at 2.
  const Graph triangles =
      Graph({{1, 2, 4, 5}, {0, 2, 6, 7}, {0, 1, 3}, {2}, {0, 5}, {0, 4}, {1, 7}, {1, 6}});
  const std::vector<Case> cases = {
      // A valid parent whose child answer is invalid: the N[dirty] check
      // must see it. Deleting {0, 1} isolates 0, and 1 drops out of the set.
      {"isolated endpoint", "degree-two-mds", graph::gen::path(5), edits({}, {{0, 1}}), true,
       false},
      // Deleting {0, 1} takes 2 off its only triangle, and 3, two hops from
      // the edit and not itself dirty, loses its only dominator.
      {"undominated next to dirty", "triangle-mds", triangles, edits({}, {{0, 1}}), true, false},
      // An invalid parent (vertex 8 is isolated and undominated) whose
      // fault lies outside N[dirty]: only the full check sees it.
      {"fault far away", "degree-two-mds", graph::disjoint_union(graph::gen::path(8), lone),
       edits({{0, 2}}, {}), false, false},
      {"invalid parent repaired", "degree-two-mds",
       graph::disjoint_union(graph::gen::path(3), lone), edits({{2, 3}}, {}), false, true},
      {"valid stays valid", "degree-two-mds", graph::gen::cycle(9), edits({{0, 4}}, {{6, 7}}),
       true, true},
      // Deleting {1, 2} leaves the edge {0, 1} with two pendant ends.
      {"uncovered edge", "degree-two-mvc", graph::gen::path(5), edits({}, {{1, 2}}), true, false},
      {"uncovered edge far away", "degree-two-mvc",
       graph::disjoint_union(graph::gen::path(8), k2), edits({{0, 2}}, {}), false, false},
      {"uncovered edge repaired", "degree-two-mvc",
       graph::disjoint_union(graph::gen::path(4), k2), edits({{3, 4}}, {}), false, true},
      {"new isolated edge", "degree-two-mvc", graph::gen::cycle(6), edits({{6, 7}}, {}), true,
       false},
  };
  const api::Registry reg = validity_registry();
  for (const Case& c : cases) {
    PatchedFixture fx(c.parent, c.patch);
    api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64}, reg);
    api::Request req;
    req.graph = fx.parent.get();
    ASSERT_EQ(reg.run(c.solver, req).valid, c.parent_valid) << c.name;
    const api::BatchDiagnostics diag =
        check_differential(ex, fx, c.solver, api::Request{}, {}, reg);
    EXPECT_EQ(diag.incremental_solves, 1u) << c.name;
    req.graph = fx.child.get();
    EXPECT_EQ(reg.run(c.solver, req).valid, c.child_valid) << c.name;
  }
}

TEST(IncrementalDifferential, ChainedPatchesStayIncremental) {
  // grandparent -> parent -> child: each hop carries its own lineage, so the
  // second solve splices from the first's cached response, and so on.
  api::GraphStore store(16);
  const auto g0 = store.put(graph::gen::grid(6, 6));
  GraphPatch p1;
  p1.add = {{0, 7}};
  const auto g1 = store.patch(g0.handle, p1);
  GraphPatch p2;
  p2.del = {{14, 15}};
  const auto g2 = store.patch(g1.put.handle, p2);

  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  const api::BatchOverrides over;
  for (const std::string& handle : {g0.handle, g1.put.handle, g2.put.handle}) {
    const std::shared_ptr<const Graph> g = store.get(handle);
    const Graph* ptr = g.get();
    std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {store.lineage(handle)};
    api::BatchDiagnostics diag;
    const auto got = ex.run_batch("theorem44", std::span<const Graph* const>(&ptr, 1), req,
                                  over, &diag, {}, {lineages.data(), 1});
    api::Request full = req;
    full.graph = ptr;
    EXPECT_EQ(got.at(0), api::Registry::instance().run("theorem44", full));
    if (handle != g0.handle) {
      EXPECT_EQ(diag.incremental_solves, 1u) << handle;
    }
  }
}

TEST(IncrementalDifferential, IntraGraphThreadsMatchFullSolve) {
  // The executor hands intra_graph_threads to every solve; at 1 and at 4,
  // every local solver must splice a full solve's answer.
  const api::Registry& reg = api::Registry::instance();
  int local_solvers = 0;
  for (const api::SolverSpec* spec : reg.specs()) {
    if (spec->locality_radius < 0) continue;
    ++local_solvers;
    for (std::uint64_t family = 0; family < soak::kFamilies; ++family) {
      const soak::GraphCase c = soak::make_case(/*run_seed=*/13, family);
      const GraphPatch p = soak::make_patch(c.graph, soak::mix_seed(13, family), 6);
      if (p.add.empty() && p.del.empty()) continue;
      PatchedFixture fx(c.graph, p);
      for (const int intra : {1, 4}) {
        api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64}, reg);
        api::BatchOverrides over;
        over.intra_graph_threads = intra;
        const api::BatchDiagnostics diag =
            check_differential(ex, fx, spec->name, api::Request{}, over);
        EXPECT_EQ(diag.incremental_solves, 1u)
            << spec->name << " family " << c.family << " intra " << intra;
        EXPECT_EQ(diag.intra_threads, intra) << spec->name;
      }
    }
  }
  EXPECT_EQ(local_solvers, 5);
}

TEST(IncrementalDifferential, KsvChildAddsOneCacheEntryAndOneMiss) {
  // An incremental solve reads the parent's answer and inserts the child's,
  // and nothing else: one hit, one miss and one new entry.
  GraphPatch p;
  p.add = {{20, 22}};
  PatchedFixture fx(graph::gen::path(100), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  const api::BatchOverrides over;
  const Graph* pg = fx.parent.get();
  (void)ex.run_batch("ksv", std::span<const Graph* const>(&pg, 1), req, over);

  const api::CacheStats before = ex.cache_stats();
  const Graph* cg = fx.child.get();
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {fx.lineage};
  api::BatchDiagnostics diag;
  (void)ex.run_batch("ksv", std::span<const Graph* const>(&cg, 1), req, over, &diag, {},
                     {lineages.data(), 1});
  const api::CacheStats after = ex.cache_stats();
  EXPECT_EQ(diag.incremental_solves, 1u);
  EXPECT_EQ(diag.cache_misses, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.size - before.size, 1u);
}

TEST(IncrementalDifferential, RatioAndTrafficRequestsSkipTheIncrementalPath) {
  // measure_ratio / measure_traffic are whole-graph measurements no splice
  // can reconstruct: the lineage must be ignored entirely (not even counted
  // as a fallback), and the result must still match the full solve.
  GraphPatch p;
  p.add = {{0, 7}};
  PatchedFixture fx(graph::gen::grid(5, 5), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  api::Request req;
  req.measure_ratio = true;
  const api::BatchDiagnostics diag = check_differential(ex, fx, "theorem44", req);
  EXPECT_EQ(diag.incremental_solves, 0u);
  EXPECT_EQ(diag.incremental_fallbacks, 0u);
}

TEST(IncrementalDifferential, CacheBypassFallsBackToFullSolve) {
  GraphPatch p;
  p.add = {{0, 7}};
  PatchedFixture fx(graph::gen::grid(5, 5), p);
  api::BatchExecutor ex({.threads = 1, .shard_size = 4, .cache_capacity = 64},
                        api::Registry::instance());
  const api::Request req;
  api::BatchOverrides over;
  over.bypass_cache = true;
  const Graph* cg = fx.child.get();
  std::vector<std::shared_ptr<const api::PatchLineage>> lineages = {fx.lineage};
  api::BatchDiagnostics diag;
  const auto got = ex.run_batch("theorem44", std::span<const Graph* const>(&cg, 1), req, over,
                                &diag, {}, {lineages.data(), 1});
  EXPECT_EQ(diag.incremental_solves, 0u);
  api::Request full = req;
  full.graph = cg;
  EXPECT_EQ(got.at(0), api::Registry::instance().run("theorem44", full));
}

// The wire's incremental_dirty is the dirty set the locality contract
// names: the radius-r balls around the edited endpoints in the parent and
// in the child, plus the new vertices. Each family's graph gets a pendant
// vertex, so it has a bridge to delete; the same patch adds an edge to a
// new vertex and one more, isolated, new vertex.
TEST(PatchSession, IncrementalDirtyIsBothBallsAndTheNewVertices) {
  for (std::uint64_t family = 0; family < soak::kFamilies; ++family) {
    const soak::GraphCase c = soak::make_case(/*run_seed=*/21, family);
    const graph::Vertex n = c.graph.num_vertices();
    const Graph parent = graph::apply_patch(c.graph, edits({{0, n}}, {})).graph;
    Edge bridge{};
    for (const Edge& e : parent.edges()) {
      if (!graph::is_connected(graph::apply_patch(parent, edits({}, {e})).graph)) {
        bridge = e;
        break;
      }
    }
    ASSERT_NE(bridge, Edge{}) << c.family;
    const GraphPatch patch = edits({{n / 2, n + 1}}, {bridge}, n + 3);
    const Graph child = graph::apply_patch(parent, patch).graph;

    for (const std::string solver : {"theorem44", "ksv"}) {
      server::CoreOptions opts;
      opts.batch = {.threads = 1, .shard_size = 4, .cache_capacity = 16};
      server::ServerCore core(opts, api::Registry::instance());
      server::Session session(core);
      const auto solve = [&](const std::string& handle) {
        return server::json_parse(session.handle_line(
            "{\"op\":\"solve\",\"solver\":\"" + solver + "\",\"graphs\":[\"" + handle + "\"]}"));
      };
      const std::string handle =
          server::json_parse(session.handle_line("{\"op\":\"put_graph\",\"graph\":" +
                                                 server::encode_graph_json(parent) + "}"))
              .find("handle")
              ->as_string();
      ASSERT_TRUE(solve(handle).find("ok")->as_bool()) << c.family;
      const server::JsonValue patched = server::json_parse(
          session.handle_line("{\"op\":\"patch_graph\",\"handle\":\"" + handle + "\"," +
                              server::encode_patch_members(patch) + "}"));
      ASSERT_TRUE(patched.find("ok")->as_bool()) << c.family;
      const server::JsonValue solved = solve(patched.find("handle")->as_string());
      const server::JsonValue* diag = solved.find("diag");
      ASSERT_NE(diag, nullptr) << c.family;
      ASSERT_NE(diag->find("incremental_solves"), nullptr) << c.family << " " << solver;

      const int r = api::Registry::instance().at(solver).locality_radius;
      std::set<graph::Vertex> dirty;
      const auto add_ball = [&](const Graph& g, const std::vector<graph::Vertex>& sources) {
        const std::vector<int> dist = graph::bfs_distances_multi(g, sources);
        for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
          if (dist[static_cast<std::size_t>(v)] >= 0 && dist[static_cast<std::size_t>(v)] <= r) {
            dirty.insert(v);
          }
        }
      };
      add_ball(parent, {bridge.u, bridge.v, n / 2});
      add_ball(child, {bridge.u, bridge.v, n / 2, n + 1});
      for (graph::Vertex v = parent.num_vertices(); v < child.num_vertices(); ++v) dirty.insert(v);
      EXPECT_EQ(diag->find("incremental_solves")->as_int(), 1) << c.family << " " << solver;
      EXPECT_EQ(diag->find("incremental_dirty")->as_int(), static_cast<std::int64_t>(dirty.size()))
          << c.family << " " << solver;
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol: decode_patch / encode_patch_members

TEST(PatchProtocol, DecodeAcceptsAndRoundTrips) {
  const server::ServerLimits limits;
  const GraphPatch p = server::decode_patch(
      server::json_parse(R"({"op":"patch_graph","add":[[3,0]],"del":[[1,2]],"n":9})"), limits);
  EXPECT_EQ(p.add, (std::vector<Edge>{{0, 3}}));  // decode orients each pair u < v
  EXPECT_EQ(p.del, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(p.n, 9);

  GraphPatch original;
  original.add = {{0, 3}, {4, 5}};
  original.n = 8;
  const std::string members = server::encode_patch_members(original);
  const GraphPatch round =
      server::decode_patch(server::json_parse("{" + members + "}"), limits);
  EXPECT_EQ(round.add, original.add);
  EXPECT_EQ(round.del, original.del);
  EXPECT_EQ(round.n, original.n);
}

TEST(PatchProtocol, DecodeRejectsMalformedShapes) {
  const server::ServerLimits limits;
  for (const char* bad : {
           R"({"op":"patch_graph"})",                       // no edit field at all
           R"({"add":[[0]]})",                              // not a pair
           R"({"add":[[0,1,2]]})",                          // not a pair
           R"({"add":[[0,0]]})",                            // self-loop
           R"({"add":[[0,-1]]})",                           // negative endpoint
           R"({"add":[[0,1.5]]})",                          // non-integer endpoint
           R"({"add":7})",                                  // list is not an array
           R"({"n":-3})",                                   // negative n
           R"({"n":2000000})",                              // n beyond max_graph_vertices
           R"({"add":[[0,2000000]]})",                      // endpoint beyond the limit
       }) {
    EXPECT_THROW((void)server::decode_patch(server::json_parse(bad), limits),
                 server::ProtocolError)
        << "accepted: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Session + HTTP front-end

TEST(PatchSession, PutPatchSolveFlow) {
  server::CoreOptions opts;
  opts.batch = {.threads = 1, .shard_size = 4, .cache_capacity = 128};
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);

  const server::JsonValue put = server::json_parse(session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" +
      server::encode_graph_json(graph::gen::grid(6, 6)) + "}"));
  ASSERT_TRUE(put.find("ok")->as_bool());
  const std::string parent = put.find("handle")->as_string();

  // Prime the parent's cached response (no ratio/traffic, default options).
  const std::string solve_parent = "{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":[\"" +
                                   parent + "\"]}";
  ASSERT_TRUE(server::json_parse(session.handle_line(solve_parent)).find("ok")->as_bool());

  const server::JsonValue patched = server::json_parse(session.handle_line(
      "{\"op\":\"patch_graph\",\"handle\":\"" + parent +
      "\",\"add\":[[0,7],[14,21]],\"del\":[[0,1]]}"));
  ASSERT_TRUE(patched.find("ok")->as_bool());
  EXPECT_TRUE(patched.find("new")->as_bool());
  EXPECT_EQ(patched.find("parent")->as_string(), parent);
  const std::string child = patched.find("handle")->as_string();
  EXPECT_NE(child, parent);

  const server::JsonValue solved = server::json_parse(session.handle_line(
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":[\"" + child + "\"]}"));
  ASSERT_TRUE(solved.find("ok")->as_bool());
  EXPECT_TRUE(solved.find("responses")->as_array().at(0).find("valid")->as_bool());
  const server::JsonValue* diag = solved.find("diag");
  ASSERT_NE(diag->find("incremental_solves"), nullptr);
  EXPECT_EQ(diag->find("incremental_solves")->as_int(), 1);
  EXPECT_GT(diag->find("incremental_dirty")->as_int(), 0);

  // Same patch again: content-addressed re-pin, "new": false.
  const server::JsonValue again = server::json_parse(session.handle_line(
      "{\"op\":\"patch_graph\",\"handle\":\"" + parent +
      "\",\"add\":[[0,7],[14,21]],\"del\":[[0,1]]}"));
  ASSERT_TRUE(again.find("ok")->as_bool());
  EXPECT_FALSE(again.find("new")->as_bool());

  // Stats surface the patch counter.
  const server::JsonValue stats = server::json_parse(session.handle_line("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.find("store")->find("patches")->as_int(), 1);
}

TEST(PatchSession, ErrorClasses) {
  server::CoreOptions opts;
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);

  const auto code_of = [&](const std::string& line) {
    const server::JsonValue v = server::json_parse(session.handle_line(line));
    EXPECT_FALSE(v.find("ok")->as_bool());
    return v.find("code")->as_string();
  };
  // Well-formed handle that resolves to nothing: unknown_handle (retryable).
  EXPECT_EQ(code_of(R"({"op":"patch_graph","handle":"gdeadbeefdeadbeef","add":[[0,2]]})"),
            "unknown_handle");
  // Handle of the wrong shape: the request's fault.
  EXPECT_EQ(code_of(R"({"op":"patch_graph","handle":"nope","add":[[0,2]]})"), "bad_request");
  // Missing handle / missing edit fields.
  EXPECT_EQ(code_of(R"({"op":"patch_graph","add":[[0,2]]})"), "bad_request");
  // Edits inconsistent with the actual parent.
  const server::JsonValue put = server::json_parse(session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + server::encode_graph_json(graph::gen::path(4)) +
      "}"));
  const std::string parent = put.find("handle")->as_string();
  EXPECT_EQ(code_of("{\"op\":\"patch_graph\",\"handle\":\"" + parent +
                    "\",\"del\":[[0,3]]}"),
            "bad_request");

  // A zero-capacity store can never patch: configuration error, not busy.
  server::CoreOptions disabled;
  disabled.store_capacity = 0;
  server::ServerCore core0(disabled, api::Registry::instance());
  server::Session session0(core0);
  const server::JsonValue v = server::json_parse(session0.handle_line(
      R"({"op":"patch_graph","handle":"gdeadbeefdeadbeef","add":[[0,2]]})"));
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("code")->as_string(), "bad_request");
}

TEST(PatchHttp, RouteCreatesAndReusesDerivedHandles) {
  server::CoreOptions opts;
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);

  server::HttpRequest put;
  put.method = "PUT";
  put.target = "/v2/graphs";
  put.body = server::encode_graph_json(graph::gen::grid(4, 4));
  const std::string put_response = server::handle_http_request(put, session);
  ASSERT_NE(put_response.find("201 Created"), std::string::npos);
  const std::size_t body_at = put_response.find("\r\n\r\n");
  const server::JsonValue put_body = server::json_parse(put_response.substr(body_at + 4));
  const std::string parent = put_body.find("handle")->as_string();

  server::HttpRequest patch;
  patch.method = "POST";
  patch.target = "/v2/graphs/" + parent + "/patch";
  patch.body = R"({"add":[[0,5]]})";
  const std::string first = server::handle_http_request(patch, session);
  EXPECT_NE(first.find("201 Created"), std::string::npos);
  const server::JsonValue first_body =
      server::json_parse(first.substr(first.find("\r\n\r\n") + 4));
  EXPECT_TRUE(first_body.find("new")->as_bool());
  EXPECT_EQ(first_body.find("parent")->as_string(), parent);

  // Replaying the identical patch reuses the child: 200, "new": false.
  const std::string second = server::handle_http_request(patch, session);
  EXPECT_NE(second.find("200 OK"), std::string::npos);

  // Unknown parent -> 404; non-object body -> 400.
  server::HttpRequest unknown = patch;
  unknown.target = "/v2/graphs/gdeadbeefdeadbeef/patch";
  EXPECT_NE(server::handle_http_request(unknown, session).find("404 Not Found"),
            std::string::npos);
  server::HttpRequest bad = patch;
  bad.body = "[1,2,3]";
  EXPECT_NE(server::handle_http_request(bad, session).find("400 Bad Request"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Soak workload + fuzz integration

TEST(SoakPatch, MakePatchIsDeterministicAndConsistent) {
  for (std::uint64_t index = 0; index < 10; ++index) {
    const soak::GraphCase c = soak::make_case(99, index);
    const std::uint64_t seed = soak::mix_seed(99, index ^ 0xED17ULL);
    const GraphPatch a = soak::make_patch(c.graph, seed, 3);
    const GraphPatch b = soak::make_patch(c.graph, seed, 3);
    EXPECT_EQ(a.add, b.add);
    EXPECT_EQ(a.del, b.del);
    EXPECT_LE(a.add.size() + a.del.size(), 3u);
    // Consistent by construction: apply_patch accepts it as-is.
    EXPECT_NO_THROW((void)graph::apply_patch(c.graph, a));
  }
}

TEST(SoakPatch, MalformedPatchMutationAlwaysRejected) {
  EXPECT_EQ(soak::to_string(soak::MutationKind::MalformedPatch), "malformed_patch");
  server::CoreOptions opts;
  server::ServerCore core(opts, api::Registry::instance());
  server::Session session(core);
  std::mt19937_64 rng(0xF00D);
  std::set<std::string> distinct;
  for (int i = 0; i < 64; ++i) {
    const std::string line = soak::mutate_line("{}", soak::MutationKind::MalformedPatch, rng);
    distinct.insert(line);
    const server::JsonValue response = server::json_parse(session.handle_line(line));
    EXPECT_FALSE(response.find("ok")->as_bool()) << line;
    const std::string code = response.find("code")->as_string();
    EXPECT_TRUE(code == "bad_request" || code == "unknown_handle") << line << " -> " << code;
  }
  EXPECT_GT(distinct.size(), 4u);  // the generator cycles through its variants
}

}  // namespace
}  // namespace lmds
