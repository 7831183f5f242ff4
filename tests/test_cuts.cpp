// Tests for the connectivity substrate: articulation points, block-cut
// trees, minimal 2-cuts, r-local cuts (Definition 2.1) and interesting
// vertices (§3.2).

#include <gtest/gtest.h>

#include <random>

#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "support/global_cuts.hpp"

namespace lmds::cuts {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::Vertex;

// ---------------------------------------------------------------------------
// Articulation points / block-cut tree

TEST(Articulation, PathInteriorOnly) {
  const auto cuts = articulation_points(graph::gen::path(5));
  EXPECT_EQ(cuts, (std::vector<Vertex>{1, 2, 3}));
}

TEST(Articulation, CycleHasNone) {
  EXPECT_TRUE(articulation_points(graph::gen::cycle(8)).empty());
}

TEST(Articulation, StarCentre) {
  EXPECT_EQ(articulation_points(graph::gen::star(6)), (std::vector<Vertex>{0}));
}

TEST(Articulation, MatchesBruteForce) {
  const auto expect_matches = [](const Graph& g) {
    const auto fast = articulation_points(g);
    std::vector<Vertex> brute;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (is_cut_vertex(g, v)) brute.push_back(v);
    }
    EXPECT_EQ(fast, brute) << g.summary();
  };
  std::mt19937_64 rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    expect_matches(graph::gen::random_connected(25, 8, rng));
  }
  // Disconnected inputs: two random components, a lone bridge and an
  // isolated vertex.
  const Graph isolated(std::vector<std::vector<Vertex>>(1));
  const Graph bridge_and_isolated = graph::disjoint_union(graph::gen::path(2), isolated);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph a = graph::gen::random_connected(15, 4, rng);
    const Graph b = graph::gen::random_connected(10, 3, rng);
    expect_matches(graph::disjoint_union(graph::disjoint_union(a, b), bridge_and_isolated));
  }
}

TEST(Articulation, DisconnectedGraph) {
  const Graph g = graph::disjoint_union(graph::gen::path(3), graph::gen::cycle(4));
  EXPECT_EQ(articulation_points(g), (std::vector<Vertex>{1}));
}

TEST(BlockCut, PathBlocks) {
  const auto bct = block_cut_tree(graph::gen::path(4));
  EXPECT_EQ(bct.num_blocks(), 3);  // each edge is a block
  EXPECT_EQ(bct.num_cut_vertices(), 2);
  // The block-cut tree of a path is itself a path of 5 nodes.
  EXPECT_EQ(bct.tree.num_vertices(), 5);
  EXPECT_EQ(bct.tree.num_edges(), 4);
  EXPECT_TRUE(graph::is_connected(bct.tree));
}

TEST(BlockCut, TwoTrianglesSharedVertex) {
  // Bowtie: triangles {0,1,2} and {2,3,4} sharing vertex 2.
  GraphBuilder b(5);
  b.add_cycle({0, 1, 2});
  b.add_cycle({2, 3, 4});
  const auto bct = block_cut_tree(b.build());
  EXPECT_EQ(bct.num_blocks(), 2);
  EXPECT_EQ(bct.cut_vertices, (std::vector<Vertex>{2}));
  EXPECT_EQ(bct.blocks_of(2).size(), 2u);
  EXPECT_EQ(bct.blocks_of(0).size(), 1u);
}

TEST(BlockCut, TreeIsATree) {
  std::mt19937_64 rng(73);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(30, 10, rng);
    const auto bct = block_cut_tree(g);
    EXPECT_TRUE(graph::is_connected(bct.tree));
    EXPECT_EQ(bct.tree.num_edges(), bct.tree.num_vertices() - 1);
  }
}

TEST(BlockCut, BiconnectedGraphSingleBlock) {
  const auto bct = block_cut_tree(graph::gen::complete(6));
  EXPECT_EQ(bct.num_blocks(), 1);
  EXPECT_EQ(bct.num_cut_vertices(), 0);
  EXPECT_EQ(bct.blocks[0].size(), 6u);
}

TEST(BlockCut, IsolatedVertexIsTrivialBlock) {
  const Graph g(std::vector<std::vector<Vertex>>(2));
  const auto bct = block_cut_tree(g);
  EXPECT_EQ(bct.num_blocks(), 2);
}

// ---------------------------------------------------------------------------
// Minimal 2-cuts

TEST(TwoCuts, PathHasAdjacentPairs) {
  // In P5 = 0-1-2-3-4, {1,2},{2,3},{1,3} separate; but minimality requires
  // two full components: {1,3} has full middle {2}? N(1)={0,2}, N(3)={2,4}:
  // components of G-{1,3}: {0},{2},{4}. {2} touches both; {0} only 1; {4}
  // only 3 -> 1 full component -> not minimal. Same for {1,2}: components
  // {0},{3,4}: {0} touches 1 only; {3,4} touches 2 only -> not minimal.
  EXPECT_TRUE(minimal_two_cuts(graph::gen::path(5)).empty());
}

TEST(TwoCuts, CycleOppositePairs) {
  // In a cycle every non-adjacent pair is a minimal 2-cut.
  const Graph g = graph::gen::cycle(6);
  const auto cuts = minimal_two_cuts(g);
  // Pairs at cycle-distance >= 2: C(6,2) - 6 adjacent = 9.
  EXPECT_EQ(cuts.size(), 9u);
  EXPECT_TRUE(is_minimal_two_cut(g, 0, 3));
  EXPECT_TRUE(is_minimal_two_cut(g, 0, 2));
  EXPECT_FALSE(is_minimal_two_cut(g, 0, 1));
}

TEST(TwoCuts, CompleteGraphHasNone) {
  EXPECT_TRUE(minimal_two_cuts(graph::gen::complete(6)).empty());
}

TEST(TwoCuts, CliqueWithPendantsAllCliquePairs) {
  // The §4 example: {0, v} separates the pendant x_v, and the clique side is
  // a second full component, so every pair {0, v} is a minimal 2-cut.
  const Graph g = graph::gen::clique_with_pendants(6);
  for (Vertex v = 1; v < 6; ++v) EXPECT_TRUE(is_minimal_two_cut(g, 0, v)) << "v=" << v;
  const auto in_cuts = vertices_in_minimal_two_cuts(g);
  // All clique vertices are in minimal 2-cuts (the paper's point: their
  // number is unbounded in MDS(G) = 1).
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_TRUE(std::binary_search(in_cuts.begin(), in_cuts.end(), v)) << "v=" << v;
  }
}

TEST(TwoCuts, ThetaChainHubs) {
  const Graph g = graph::gen::theta_chain(3, 3);
  // Consecutive hub pairs are minimal 2-cuts (internals + rest are full).
  EXPECT_TRUE(is_minimal_two_cut(g, 0, 1));
  EXPECT_TRUE(is_minimal_two_cut(g, 1, 2));
  // Non-consecutive hubs are NOT minimal: {2} alone already separates the
  // h3-side, so {0,2} has only one full component (the middle).
  EXPECT_FALSE(is_minimal_two_cut(g, 0, 2));
}

TEST(TwoCuts, FullComponentCount) {
  const Graph g = graph::gen::cycle(6);
  EXPECT_EQ(full_component_count(g, 0, 3), 2);
  EXPECT_EQ(full_component_count(g, 0, 1), 1);
}

// ---------------------------------------------------------------------------
// Local cuts

TEST(LocalCuts, EveryCycleVertexIsLocalOneCut) {
  // Paper §4: on a long cycle all vertices are local 1-cuts but none are
  // global 1-cuts.
  const Graph g = graph::gen::cycle(30);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(is_local_one_cut(g, v, 3)) << "v=" << v;
    EXPECT_FALSE(is_cut_vertex(g, v));
  }
}

TEST(LocalCuts, ShortCycleHasNoLocalOneCut) {
  // If the ball covers the whole cycle, the local cut is a global cut —
  // and cycles have none. C7 with r=3: ball(v,3) = everything.
  const Graph g = graph::gen::cycle(7);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FALSE(is_local_one_cut(g, v, 3));
  }
}

TEST(LocalCuts, GlobalCutIsLocalCutAtLargeRadius) {
  std::mt19937_64 rng(79);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(20, 5, rng);
    const int r = g.num_vertices();  // radius beyond diameter
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(is_local_one_cut(g, v, r), is_cut_vertex(g, v));
    }
  }
}

TEST(LocalCuts, MonotoneInRadiusOnCycle) {
  // If v is not an r-local 1-cut then it is not an r'-local 1-cut for any
  // r' > r (on the cycle: once the ball closes, no local cut).
  const Graph g = graph::gen::cycle(12);
  EXPECT_TRUE(is_local_one_cut(g, 0, 5));
  EXPECT_FALSE(is_local_one_cut(g, 0, 6));  // ball(0,6) = C12, no cut vertex
  EXPECT_FALSE(is_local_one_cut(g, 0, 7));
}

TEST(LocalCuts, LongCycleHasNoLocalTwoCuts) {
  // The union of two r-balls on a long cycle is a path, and a path has no
  // minimal 2-cuts (each pair leaves at most one full component). This is
  // why long cycles are handled entirely by the local 1-cut step of
  // Algorithm 1.
  const Graph g = graph::gen::cycle(40);
  EXPECT_FALSE(is_local_two_cut(g, 0, 4, 4));
  EXPECT_FALSE(is_local_two_cut(g, 0, 5, 4));  // also too far apart
  EXPECT_FALSE(is_local_two_cut(g, 0, 1, 4));
  EXPECT_TRUE(local_two_cuts(g, 3).empty());
  // Globally (radius covering the whole cycle) opposite pairs ARE minimal
  // 2-cuts, and the local notion converges to them.
  EXPECT_TRUE(is_local_two_cut(g, 0, 20, 40));
}

TEST(LocalCuts, LocalTwoCutsDetectThetaHubs) {
  const Graph g = graph::gen::theta_chain(6, 3);
  // Consecutive hubs are local 2-cuts at moderate radius.
  EXPECT_TRUE(is_local_two_cut(g, 0, 1, 3));
  EXPECT_TRUE(is_local_two_cut(g, 2, 3, 3));
  const auto vertices = vertices_in_local_two_cuts(g, 3);
  for (Vertex h = 0; h <= 6; ++h) {
    EXPECT_TRUE(std::binary_search(vertices.begin(), vertices.end(), h)) << "hub " << h;
  }
}

TEST(LocalCuts, RejectsBadRadius) {
  const Graph g = graph::gen::path(4);
  EXPECT_THROW(is_local_one_cut(g, 0, 0), std::invalid_argument);
  EXPECT_THROW(local_two_cuts(g, -1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Interesting vertices

TEST(Interesting, CliqueWithPendantsHasNone) {
  // The motivating example of §4: many 2-cuts, but taking u (vertex 0) is
  // always at least as good, so no vertex should be interesting.
  const Graph g = graph::gen::clique_with_pendants(7);
  EXPECT_TRUE(globally_interesting_vertices(g).empty());
}

TEST(Interesting, ThetaChainHubsAreInteresting) {
  const Graph g = graph::gen::theta_chain(4, 3);
  // Middle hubs: cut {h1, h2} leaves components on both sides with vertices
  // non-adjacent to the partner, and neighbourhoods are incomparable.
  EXPECT_TRUE(certifies_globally_interesting(g, 1, 2));
  EXPECT_TRUE(certifies_globally_interesting(g, 2, 1));
  const auto interesting = globally_interesting_vertices(g);
  for (Vertex h = 1; h <= 3; ++h) {
    EXPECT_TRUE(std::binary_search(interesting.begin(), interesting.end(), h)) << "hub " << h;
  }
  // Endpoint hubs are not interesting: their only minimal 2-cut {h0, h1}
  // leaves a single component with a non-neighbour of the partner.
  EXPECT_FALSE(std::binary_search(interesting.begin(), interesting.end(), Vertex{0}));
  EXPECT_FALSE(std::binary_search(interesting.begin(), interesting.end(), Vertex{4}));
  // Internal (degree-2) vertices are never interesting: any minimal 2-cut
  // containing x is {h_i, h_{i+1}}-shaped... in fact x is in no minimal
  // 2-cut with a partner making it interesting.
  for (Vertex x = 5; x < g.num_vertices(); ++x) {
    EXPECT_FALSE(std::binary_search(interesting.begin(), interesting.end(), x)) << "x=" << x;
  }
}

TEST(Interesting, C6OpposingCutsAreInteresting) {
  // §5.3 uses C6: the three opposing cuts {a,d},{b,e},{c,f} are interesting.
  const Graph g = graph::gen::cycle(6);
  EXPECT_TRUE(certifies_globally_interesting(g, 0, 3));
  EXPECT_TRUE(certifies_globally_interesting(g, 3, 0));
  EXPECT_TRUE(certifies_globally_interesting(g, 1, 4));
  EXPECT_TRUE(certifies_globally_interesting(g, 2, 5));
  // Distance-2 cuts {0,2}: one side is the single vertex 1, adjacent to
  // both; the other side has non-neighbours. Only one component with a
  // non-neighbour of the partner -> not a certificate.
  EXPECT_FALSE(certifies_globally_interesting(g, 0, 2));
}

TEST(Interesting, SmallCyclesHaveNoInterestingVertices) {
  // §5.3: if G = C_k with k <= 5, there are no interesting vertices.
  for (int k = 3; k <= 5; ++k) {
    EXPECT_TRUE(globally_interesting_vertices(graph::gen::cycle(k)).empty()) << "k=" << k;
  }
}

TEST(Interesting, LocalMatchesGlobalAtLargeRadius) {
  std::mt19937_64 rng(83);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gen::random_connected(18, 6, rng);
    const int r = g.num_vertices();
    EXPECT_EQ(interesting_vertices(g, r), globally_interesting_vertices(g));
  }
}

// Only the components of G − {u, v} that the pair touches count for
// condition (2): a component elsewhere in G changes no global predicate.
TEST(Interesting, GlobalPredicatesIgnoreOtherComponents) {
  // The 5-cycle 0-2-1-4-3-0, alone and next to an isolated vertex 5.
  const Graph c5({{2, 3}, {2, 4}, {0, 1}, {0, 4}, {1, 3}});
  const Graph with_isolated({{2, 3}, {2, 4}, {0, 1}, {0, 4}, {1, 3}, {}});
  for (const Graph* g : {&c5, &with_isolated}) {
    EXPECT_TRUE(globally_interesting_vertices(*g).empty()) << g->num_vertices();
    EXPECT_EQ(globally_interesting_vertices(*g), interesting_vertices(*g, g->num_vertices()));
    for (Vertex v = 0; v < g->num_vertices(); ++v) {
      EXPECT_FALSE(is_almost_interesting(*g, v)) << g->num_vertices() << " v=" << v;
    }
  }
}

TEST(Interesting, LocalMatchesGlobalAtLargeRadiusOnDisjointUnions) {
  std::mt19937_64 rng(89);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::disjoint_union(
        graph::disjoint_union(graph::gen::random_connected(18, 6, rng),
                              graph::gen::random_connected(12, 4, rng)),
        graph::gen::path(1));
    EXPECT_EQ(interesting_vertices(g, g.num_vertices()), globally_interesting_vertices(g));
  }
}

TEST(Interesting, LongCycleLocalVsGlobal) {
  // Locally (small radius) a long cycle has no minimal 2-cuts at all, hence
  // no interesting vertices; globally every vertex is interesting through
  // its opposite cut. This is the local/global gap the radius constants
  // m3.3 are tuned around.
  const Graph g = graph::gen::cycle(40);
  EXPECT_TRUE(interesting_vertices(g, 4).empty());
  const auto global = globally_interesting_vertices(g);
  EXPECT_EQ(global.size(), 40u);
}

TEST(Interesting, AlmostInterestingWeaker) {
  const Graph g = graph::gen::theta_chain(4, 3);
  // Every interesting vertex is almost-interesting.
  for (Vertex v : globally_interesting_vertices(g)) {
    EXPECT_TRUE(is_almost_interesting(g, v));
  }
}

TEST(Interesting, TrueTwinHubsNotInteresting) {
  // Single-link theta (K_{2,p} shape): hubs are true twins after adding the
  // hub edge? Without it, N[h0] = {h0, internals}, N[h1] = {h1, internals}:
  // incomparable, but G - {h0,h1} leaves p isolated internals all adjacent
  // to h1... every component consists of a single internal adjacent to both
  // hubs, so condition (2) fails.
  const Graph g = graph::gen::theta_chain(1, 4);
  EXPECT_TRUE(globally_interesting_vertices(g).empty());
}

}  // namespace
}  // namespace lmds::cuts
