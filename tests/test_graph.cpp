// Unit tests for the core graph substrate: Graph, GraphBuilder, BFS
// utilities, structural operations, I/O and generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"

namespace lmds::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.has_vertex(0));
}

TEST(Graph, BuilderBasics) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 1);  // duplicate, deduplicated at build
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, BuilderRejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, BuilderCreatesVerticesOnDemand) {
  GraphBuilder b;
  b.add_edge(0, 5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, AsymmetricAdjacencyRejected) {
  std::vector<std::vector<Vertex>> adj{{1}, {}};
  EXPECT_THROW(Graph{adj}, std::invalid_argument);
}

TEST(Graph, NeighborsSorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 3u);
}

TEST(Graph, EdgesListedOnce) {
  const Graph g = gen::cycle(5);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 5u);
  for (const Edge e : edges) EXPECT_LT(e.u, e.v);
}

TEST(Graph, ClosedNeighborhood) {
  const Graph g = gen::path(4);  // 0-1-2-3
  EXPECT_EQ(g.closed_neighborhood(1), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(g.closed_neighborhood(0), (std::vector<Vertex>{0, 1}));
}

TEST(Graph, ClosedNeighborhoodContainment) {
  // Star: leaf neighbourhoods contained in centre's.
  const Graph g = gen::star(5);
  EXPECT_TRUE(g.closed_neighborhood_contained(1, 0));
  EXPECT_FALSE(g.closed_neighborhood_contained(0, 1));
  // Non-adjacent leaves: not contained (a not in N[b]).
  EXPECT_FALSE(g.closed_neighborhood_contained(1, 2));
}

TEST(Graph, TrueTwins) {
  // Triangle: all three vertices are pairwise true twins.
  const Graph g = gen::complete(3);
  EXPECT_TRUE(g.true_twins(0, 1));
  EXPECT_TRUE(g.true_twins(1, 2));
  // Path: no true twins.
  const Graph p = gen::path(3);
  EXPECT_FALSE(p.true_twins(0, 2));
  EXPECT_FALSE(p.true_twins(0, 1));
}

// ---------------------------------------------------------------------------
// BFS utilities

TEST(Bfs, DistancesOnPath) {
  const Graph g = gen::path(5);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Bfs, DistancesDisconnected) {
  const Graph g = disjoint_union(gen::path(2), gen::path(2));
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Bfs, MultiSourceDistances) {
  const Graph g = gen::path(7);
  const std::vector<Vertex> sources{0, 6};
  const auto dist = bfs_distances_multi(g, sources);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
}

TEST(Bfs, BallRadius) {
  const Graph g = gen::path(9);
  EXPECT_EQ(ball(g, 4, 2), (std::vector<Vertex>{2, 3, 4, 5, 6}));
  EXPECT_EQ(ball(g, 0, 0), (std::vector<Vertex>{0}));
}

TEST(Bfs, BallOfSet) {
  const Graph g = gen::path(9);
  const std::vector<Vertex> sources{0, 8};
  EXPECT_EQ(ball_of_set(g, sources, 1), (std::vector<Vertex>{0, 1, 7, 8}));
}

TEST(Bfs, ConnectedComponents) {
  const Graph g = disjoint_union(gen::cycle(3), gen::path(2));
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 2);
  EXPECT_EQ(comps.groups()[0], (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(comps.groups()[1], (std::vector<Vertex>{3, 4}));
}

TEST(Bfs, ComponentsWithout) {
  const Graph g = gen::path(5);
  const std::vector<Vertex> removed{2};
  const auto comps = components_without(g, removed);
  EXPECT_EQ(comps.count, 2);
  EXPECT_EQ(comps.component[2], -1);
}

TEST(Bfs, Diameter) {
  EXPECT_EQ(diameter(gen::path(6)), 5);
  EXPECT_EQ(diameter(gen::cycle(6)), 3);
  EXPECT_EQ(diameter(gen::complete(4)), 1);
  EXPECT_EQ(diameter(disjoint_union(gen::path(2), gen::path(2))), -1);
}

TEST(Bfs, WeakDiameterUsesWholeGraph) {
  // On a cycle, the two endpoints of a "broken" arc are close through the
  // rest of the graph: weak diameter of {0, 5} in C6 is 1? no: d(0,5)=1.
  const Graph g = gen::cycle(6);
  const std::vector<Vertex> s{0, 3};
  EXPECT_EQ(weak_diameter(g, s), 3);
  const std::vector<Vertex> s2{0, 1, 5};
  EXPECT_EQ(weak_diameter(g, s2), 2);
}

TEST(Bfs, IsConnected) {
  EXPECT_TRUE(is_connected(gen::cycle(4)));
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_FALSE(is_connected(disjoint_union(gen::path(2), gen::path(2))));
}

TEST(Bfs, OutOfRangeVerticesThrow) {
  const Graph g = gen::path(5);
  EXPECT_THROW((void)distance(g, 0, 5), std::invalid_argument);
  EXPECT_THROW((void)distance(g, 0, -1), std::invalid_argument);
  EXPECT_THROW((void)distance(g, 5, 0), std::invalid_argument);
  const std::vector<Vertex> bad_member{0, 9};
  EXPECT_THROW((void)weak_diameter(g, bad_member), std::invalid_argument);
  const std::vector<Vertex> bad_first{-1, 2};
  EXPECT_THROW((void)weak_diameter(g, bad_first), std::invalid_argument);
  EXPECT_THROW((void)bfs_distances(g, 5), std::invalid_argument);
  EXPECT_THROW((void)eccentricity(g, -1), std::invalid_argument);
  EXPECT_THROW((void)ball(g, 5, 1), std::invalid_argument);
  const std::vector<Vertex> bad_removed{5};
  EXPECT_THROW((void)components_without(g, bad_removed), std::invalid_argument);
}

// Floyd–Warshall over an explicit edge list: the BFS engine's oracle, with
// no traversal in it. kInf marks unreachable pairs.
constexpr int kInf = 1 << 20;
using Matrix = std::vector<std::vector<int>>;

Matrix all_pairs(int n, const std::vector<Edge>& edges) {
  const auto sn = static_cast<std::size_t>(n);
  Matrix d(sn, std::vector<int>(sn, kInf));
  for (std::size_t v = 0; v < sn; ++v) d[v][v] = 0;
  for (const Edge& e : edges) {
    d[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)] = 1;
    d[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] = 1;
  }
  for (std::size_t k = 0; k < sn; ++k) {
    for (std::size_t i = 0; i < sn; ++i) {
      for (std::size_t j = 0; j < sn; ++j) d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
    }
  }
  return d;
}

// The oracle's distance from the nearest of `sources`, -1 if unreachable.
int oracle_dist(const Matrix& d, std::span<const Vertex> sources, Vertex v) {
  int best = kInf;
  for (Vertex s : sources) {
    best = std::min(best, d[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)]);
  }
  return best == kInf ? -1 : best;
}

std::vector<Vertex> random_subset(int n, double p, std::mt19937_64& rng) {
  std::bernoulli_distribution pick(p);
  std::vector<Vertex> out;
  for (Vertex v = 0; v < n; ++v) {
    if (pick(rng)) out.push_back(v);
  }
  return out;
}

// G(n, p) plus two isolated vertices: disconnected at small p.
Graph random_graph(int n, double p, std::mt19937_64& rng) {
  GraphBuilder b(n + 2);
  std::bernoulli_distribution edge(p);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (edge(rng)) b.add_edge(u, v);
    }
  }
  return b.build();
}

TEST(BfsEngine, MatchesFloydWarshallOracle) {
  std::mt19937_64 rng(20260418);
  std::vector<Graph> graphs{Graph{}, gen::path(1), gen::cycle(9),
                            disjoint_union(gen::random_tree(14, 5), gen::path(3))};
  for (const int n : {4, 12, 25, 40}) {
    for (const double p : {0.04, 0.1, 0.25}) graphs.push_back(random_graph(n, p, rng));
  }
  BfsScratch scratch;  // one arena across every graph size, as hot loops use it
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.summary());
    const int n = g.num_vertices();
    const std::vector<Edge> edges = g.edges();
    const Matrix d = all_pairs(n, edges);

    // Distances, eccentricities, pairwise distance.
    int diam = 0;
    for (Vertex s = 0; s < n; ++s) {
      const Vertex one[] = {s};
      const auto dist = bfs_distances(g, s);
      int ecc = 0;
      for (Vertex v = 0; v < n; ++v) {
        const int want = oracle_dist(d, one, v);
        ASSERT_EQ(dist[static_cast<std::size_t>(v)], want) << s << "->" << v;
        EXPECT_EQ(distance(g, s, v), want);
        ecc = want == -1 || ecc == -1 ? -1 : std::max(ecc, want);
      }
      EXPECT_EQ(eccentricity(g, s), ecc) << s;
      diam = ecc == -1 || diam == -1 ? -1 : std::max(diam, ecc);
    }
    EXPECT_EQ(diameter(g), diam);

    for (int trial = 0; trial < 6; ++trial) {
      const std::vector<Vertex> set = random_subset(n, 0.15, rng);
      const auto multi = bfs_distances_multi(g, set);
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(multi[static_cast<std::size_t>(v)], oracle_dist(d, set, v)) << v;
      }

      // Balls, single-source and multi-source, unbounded (r = -1) or not.
      for (int r = -1; r <= 4; ++r) {
        std::vector<Vertex> want_set;
        for (Vertex v = 0; v < n; ++v) {
          const int dv = oracle_dist(d, set, v);
          if (dv != -1 && (r < 0 || dv <= r)) want_set.push_back(v);
        }
        EXPECT_EQ(ball_of_set(g, set, r), want_set) << "r=" << r;
        if (!set.empty()) {
          const Vertex v = set.front();
          const Vertex one[] = {v};
          std::vector<Vertex> want_one;
          for (Vertex u = 0; u < n; ++u) {
            const int du = oracle_dist(d, one, u);
            if (du != -1 && (r < 0 || du <= r)) want_one.push_back(u);
          }
          EXPECT_EQ(ball(g, v, r), want_one) << "v=" << v << " r=" << r;
        }
      }

      // Weak diameter: distances in the whole graph.
      int weak = 0;
      for (Vertex u : set) {
        for (Vertex v : set) {
          const Vertex one[] = {u};
          const int duv = oracle_dist(d, one, v);
          weak = duv == -1 || weak == -1 ? -1 : std::max(weak, duv);
        }
      }
      EXPECT_EQ(weak_diameter(g, set), weak);

      // Components without a random removed set: same component iff joined
      // in the oracle over the surviving edges, ids by smallest vertex.
      const std::vector<Vertex> removed = random_subset(n, 0.25, rng);
      std::vector<char> gone(static_cast<std::size_t>(n), 0);
      for (Vertex v : removed) gone[static_cast<std::size_t>(v)] = 1;
      std::vector<Edge> kept;
      for (const Edge& e : edges) {
        if (!gone[static_cast<std::size_t>(e.u)] && !gone[static_cast<std::size_t>(e.v)]) {
          kept.push_back(e);
        }
      }
      const Matrix dk = all_pairs(n, kept);
      const Components comps = components_without(g, removed);
      int next_id = 0;
      for (Vertex v = 0; v < n; ++v) {
        const int c = comps.component[static_cast<std::size_t>(v)];
        if (gone[static_cast<std::size_t>(v)]) {
          EXPECT_EQ(c, -1) << v;
          continue;
        }
        ASSERT_GE(c, 0) << v;
        if (c == next_id) ++next_id;
        EXPECT_LT(c, next_id) << "ids follow the smallest vertex: " << v;
        for (Vertex u = 0; u < v; ++u) {
          if (gone[static_cast<std::size_t>(u)]) continue;
          const bool joined = dk[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] < kInf;
          EXPECT_EQ(comps.component[static_cast<std::size_t>(u)] == c, joined) << u << "," << v;
        }
      }
      EXPECT_EQ(comps.count, next_id);

      // The filtered traversal: a random set of blocked edges, tested per
      // CSR slot (both slots of an edge), against the oracle without them.
      std::vector<Edge> open_edges;
      std::vector<char> blocked_slot(edges.size() * 2, 0);
      std::bernoulli_distribution block(0.3);
      for (const Edge& e : edges) {
        if (!block(rng)) {
          open_edges.push_back(e);
          continue;
        }
        for (const auto& [x, y] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
          const auto nb = g.neighbors(x);
          const auto j = static_cast<std::size_t>(std::lower_bound(nb.begin(), nb.end(), y) -
                                                  nb.begin());
          blocked_slot[g.adjacency_offset(x) + j] = 1;
        }
      }
      const Matrix dopen = all_pairs(n, open_edges);
      for (int r = -1; r <= 4; ++r) {
        mark_ball_if(g, set, r, scratch,
                     [&](std::size_t slot, Vertex) { return blocked_slot[slot] == 0; });
        for (Vertex v = 0; v < n; ++v) {
          const int dv = oracle_dist(dopen, set, v);
          const bool inside = dv != -1 && (r < 0 || dv <= r);
          ASSERT_EQ(scratch.seen(v), inside) << "r=" << r << " v=" << v;
          if (inside) {
            EXPECT_EQ(scratch.dist(v), dv) << "r=" << r << " v=" << v;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Operations

TEST(Ops, InducedSubgraph) {
  const Graph g = gen::cycle(6);
  const std::vector<Vertex> vs{0, 1, 2, 4};
  const Subgraph sub = induced_subgraph(g, vs);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 0-1, 1-2 survive; 4 isolated
  EXPECT_EQ(sub.to_parent[3], 4);
  EXPECT_EQ(sub.from_parent[4], 3);
  EXPECT_EQ(sub.from_parent[5], kNoVertex);
}

TEST(Ops, InducedSubgraphLift) {
  const Graph g = gen::path(5);
  const std::vector<Vertex> vs{1, 3, 4};
  const Subgraph sub = induced_subgraph(g, vs);
  const std::vector<Vertex> picked{0, 2};
  EXPECT_EQ(sub.lift(picked), (std::vector<Vertex>{1, 4}));
}

TEST(Ops, RemoveVertices) {
  const Graph g = gen::cycle(5);
  const std::vector<Vertex> rm{0};
  const Subgraph sub = remove_vertices(g, rm);
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.graph.num_edges(), 3);
}

TEST(Ops, TrueTwinReductionOnClique) {
  // All vertices of K5 are true twins; reduction keeps one.
  const TwinReduction red = remove_true_twins(gen::complete(5));
  EXPECT_EQ(red.num_classes, 1);
  EXPECT_EQ(red.reduced.graph.num_vertices(), 1);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(red.representative[v], 0);
}

TEST(Ops, TrueTwinReductionPreservesTwinless) {
  const Graph g = gen::path(6);
  const TwinReduction red = remove_true_twins(g);
  EXPECT_EQ(red.num_classes, 6);
  EXPECT_EQ(red.reduced.graph, g);
}

TEST(Ops, TrueTwinReductionLiftSolution) {
  const TwinReduction red = remove_true_twins(gen::complete(4));
  const std::vector<Vertex> sol{0};
  const auto lifted = red.lift_solution(sol);
  ASSERT_EQ(lifted.size(), 1u);
  EXPECT_EQ(lifted[0], 0);
}

TEST(Ops, TwinReductionMixedClasses) {
  // K3 with a pendant on vertex 0: vertices 1 and 2 are true twins.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 3);
  const TwinReduction red = remove_true_twins(b.build());
  EXPECT_EQ(red.num_classes, 3);
  EXPECT_EQ(red.representative[2], 1);
  EXPECT_EQ(red.representative[1], 1);
  EXPECT_EQ(red.representative[0], 0);
}

TEST(Ops, ContractPartition) {
  const Graph g = gen::path(6);
  const std::vector<std::vector<Vertex>> parts{{0, 1}, {2, 3}, {4, 5}};
  const Graph contracted = contract_partition(g, parts);
  EXPECT_EQ(contracted.num_vertices(), 3);
  EXPECT_EQ(contracted.num_edges(), 2);
  EXPECT_TRUE(contracted.has_edge(0, 1));
  EXPECT_TRUE(contracted.has_edge(1, 2));
  EXPECT_FALSE(contracted.has_edge(0, 2));
}

TEST(Ops, ContractPartitionRejectsOverlap) {
  const Graph g = gen::path(4);
  const std::vector<std::vector<Vertex>> parts{{0, 1}, {1, 2}};
  EXPECT_THROW(contract_partition(g, parts), std::invalid_argument);
}

TEST(Ops, GraphPower) {
  const Graph g = gen::path(5);
  const Graph g2 = power(g, 2);
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 3));
  EXPECT_EQ(g2.degree(2), 4);
}

TEST(Ops, DisjointUnion) {
  const Graph g = disjoint_union(gen::cycle(3), gen::cycle(4));
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Ops, RComponents) {
  // On a path 0..8, S = {0, 2, 7} with r = 2: {0,2} chain together, {7} apart.
  const Graph g = gen::path(9);
  const std::vector<Vertex> s{0, 2, 7};
  const auto comps = r_components(g, s, 2);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<Vertex>{0, 2}));
  EXPECT_EQ(comps[1], (std::vector<Vertex>{7}));
}

TEST(Ops, RComponentsOfCycleBand) {
  // All of C9 with r=1 forms one r-component.
  const Graph g = gen::cycle(9);
  std::vector<Vertex> all(9);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(r_components(g, all, 1).size(), 1u);
}

// ---------------------------------------------------------------------------
// I/O

TEST(Io, RoundTripEdgeList) {
  const Graph g = gen::cycle(5);
  std::ostringstream out;
  write_edge_list(out, g);
  const Graph back = parse_edge_list(out.str());
  EXPECT_EQ(back, g);
}

TEST(Io, ParseWithComments) {
  const Graph g = parse_edge_list("# a triangle\nn 3\n0 1\n1 2 # chord\n0 2\n");
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(Io, ParseRejectsGarbage) {
  EXPECT_THROW(parse_edge_list("0 x\n"), std::runtime_error);
  EXPECT_THROW(parse_edge_list("hello world\n"), std::runtime_error);
}

TEST(Io, DotContainsHighlights) {
  const Graph g = gen::path(3);
  const std::vector<Vertex> hl{1};
  const std::string dot = to_dot(g, hl);
  EXPECT_NE(dot.find("1 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Generators

TEST(Generators, BasicShapes) {
  EXPECT_EQ(gen::path(1).num_edges(), 0);
  EXPECT_EQ(gen::path(10).num_edges(), 9);
  EXPECT_EQ(gen::cycle(10).num_edges(), 10);
  EXPECT_EQ(gen::star(7).num_edges(), 6);
  EXPECT_EQ(gen::complete(6).num_edges(), 15);
  EXPECT_EQ(gen::complete_bipartite(2, 5).num_edges(), 10);
  EXPECT_EQ(gen::grid(3, 4).num_edges(), 17);
  EXPECT_EQ(gen::wheel(7).num_edges(), 12);
}

TEST(Generators, SpiderShape) {
  const Graph g = gen::spider(3, 4);
  EXPECT_EQ(g.num_vertices(), 13);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(diameter(g), 8);
}

TEST(Generators, RandomTreeIsTree) {
  std::mt19937_64 rng(42);
  const Graph g = gen::random_tree(50, rng);
  EXPECT_EQ(g.num_edges(), 49);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CaterpillarShape) {
  const Graph g = gen::caterpillar(5, 3);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 19);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ThetaChainShape) {
  const Graph g = gen::theta_chain(3, 4);
  // 4 hubs + 3*4 internal vertices.
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 24);
  // No hub-hub edges.
  EXPECT_FALSE(g.has_edge(0, 1));
  // Internal vertices have degree exactly 2.
  for (Vertex v = 4; v < 16; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CliqueWithPendantsShape) {
  const Graph g = gen::clique_with_pendants(5);
  EXPECT_EQ(g.num_vertices(), 9);
  // C(5,2) clique edges + 2 per pendant * 4 pendants.
  EXPECT_EQ(g.num_edges(), 18);
  for (Vertex v = 5; v < 9; ++v) {
    EXPECT_EQ(g.degree(v), 2);
    EXPECT_TRUE(g.has_edge(v, 0));
  }
}

TEST(Generators, ApollonianIsPlanarSized) {
  std::mt19937_64 rng(7);
  const Graph g = gen::apollonian(30, rng);
  EXPECT_EQ(g.num_vertices(), 30);
  // Planar triangulation: m = 3n - 6.
  EXPECT_EQ(g.num_edges(), 3 * 30 - 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, MaximalOuterplanarEdgeCount) {
  std::mt19937_64 rng(11);
  const Graph g = gen::random_maximal_outerplanar(20, rng);
  // Maximal outerplanar: m = 2n - 3.
  EXPECT_EQ(g.num_edges(), 2 * 20 - 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, OuterplanarKeepsCycle) {
  std::mt19937_64 rng(13);
  const Graph g = gen::random_outerplanar(15, 0.0, rng);
  EXPECT_EQ(g.num_edges(), 15);  // all chords dropped, cycle kept
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, MaxDegreeRespected) {
  std::mt19937_64 rng(17);
  const Graph g = gen::random_max_degree(60, 4, 30, rng);
  EXPECT_TRUE(is_connected(g));
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_LE(g.degree(v), 4);
}

TEST(Generators, RandomConnected) {
  std::mt19937_64 rng(19);
  const Graph g = gen::random_connected(40, 20, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 59);
}

TEST(Generators, InvalidArgumentsThrow) {
  EXPECT_THROW(gen::path(0), std::invalid_argument);
  EXPECT_THROW(gen::cycle(2), std::invalid_argument);
  EXPECT_THROW(gen::theta_chain(0, 1), std::invalid_argument);
  EXPECT_THROW(gen::clique_with_pendants(1), std::invalid_argument);
}

}  // namespace
}  // namespace lmds::graph
