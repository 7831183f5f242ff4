// Cross-module property and fuzz tests: structural invariants the paper
// relies on, checked over randomized instance streams.
//
//  * radius monotonicity of local cuts (§2: no r-local cuts ⇒ no r'-local
//    cuts for r' > r);
//  * interesting vertices always sit in local 2-cuts;
//  * twin reduction preserves MDS;
//  * SPQR skeleton edge counts reassemble the graph;
//  * exact solver cross-validation against an independent brute force;
//  * Algorithm 1 never does worse than the union bound of its parts.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/algorithm1.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "ding/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "minor/k2t.hpp"
#include "solve/exact_mds.hpp"
#include "local/runner.hpp"
#include "solve/validate.hpp"
#include "support/global_cuts.hpp"
#include "support/spqr_tree.hpp"

namespace lmds {
namespace {

using graph::Graph;
using graph::Vertex;

// A rotating stream of moderate random instances.
Graph random_instance(std::mt19937_64& rng, int which) {
  switch (which % 5) {
    case 0:
      return graph::gen::random_connected(22, 8, rng);
    case 1:
      return graph::gen::random_tree(25, rng);
    case 2:
      return graph::gen::random_maximal_outerplanar(16, rng);
    case 3: {
      ding::CactusConfig cfg;
      cfg.pieces = 4;
      cfg.max_piece_size = 7;
      cfg.t = 5;
      return ding::random_cactus_of_structures(cfg, rng);
    }
    default:
      return graph::gen::theta_chain(3 + which % 3, 2 + which % 4);
  }
}

TEST(Properties, LocalCutRadiusMonotonicityGraphLevel) {
  // §2 claims: if a graph has no r-local k-cuts it has no r'-local k-cuts
  // for r' > r. Reproduction note: for k = 2 this is FALSE as literally
  // stated at small radii — an r-local 2-cut requires its two vertices
  // within distance r, so a distance-(r+1) cut pair only becomes visible at
  // radius r+1 (our fuzzer found 13-vertex counterexamples). The claim is
  // sound for k = 1, which is all the paper's proofs rely on; we pin the
  // k = 1 version here and the k = 2 caveat in docs/REPRODUCTION.md.
  std::mt19937_64 rng(31415);
  for (int trial = 0; trial < 12; ++trial) {
    const Graph g = random_instance(rng, trial);
    for (int r = 1; r <= 4; ++r) {
      if (cuts::local_one_cuts(g, r).empty()) {
        EXPECT_TRUE(cuts::local_one_cuts(g, r + 1).empty())
            << g.summary() << " r=" << r;
      }
    }
  }
}

TEST(Properties, LocalTwoCutMonotonicityCounterexample) {
  // Concrete witness for the k = 2 caveat above: two vertices at distance 2
  // forming a 2-cut, with no adjacent pair forming one. C6 plus one pendant
  // path off opposite vertices... simplest: C8. At r = 1 only adjacent
  // pairs are candidates and none is a minimal 2-cut of its double ball
  // (paths have no minimal 2-cuts); at r = 4 the opposite pairs qualify.
  const Graph g = graph::gen::cycle(8);
  EXPECT_TRUE(cuts::local_two_cuts(g, 1).empty());
  EXPECT_FALSE(cuts::local_two_cuts(g, 4).empty());
}

TEST(Properties, GlobalCutsAreLocalCutsAtDiameter) {
  std::mt19937_64 rng(27182);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_instance(rng, trial);
    if (!graph::is_connected(g)) continue;
    const int r = g.num_vertices();
    // Radius >= diameter: the local notions coincide with the global ones.
    const auto local_pairs = cuts::local_two_cuts(g, r);
    const auto global_pairs = cuts::minimal_two_cuts(g);
    EXPECT_EQ(local_pairs, global_pairs) << g.summary();
  }
}

TEST(Properties, InterestingVerticesSitInLocalTwoCuts) {
  std::mt19937_64 rng(16180);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_instance(rng, trial);
    for (const int r : {2, 3}) {
      const auto interesting = cuts::interesting_vertices(g, r);
      const auto in_cuts = cuts::vertices_in_local_two_cuts(g, r);
      for (Vertex v : interesting) {
        EXPECT_TRUE(std::binary_search(in_cuts.begin(), in_cuts.end(), v))
            << g.summary() << " v=" << v << " r=" << r;
      }
    }
  }
}

TEST(Properties, TwinReductionPreservesMds) {
  std::mt19937_64 rng(14142);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = random_instance(rng, trial);
    const auto reduction = graph::remove_true_twins(g);
    EXPECT_EQ(solve::mds_size(g), solve::mds_size(reduction.reduced.graph)) << g.summary();
  }
}

TEST(Properties, TwinReductionLiftedSolutionsDominate) {
  std::mt19937_64 rng(17320);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::clique_with_pendants(5 + trial % 4);
    const auto reduction = graph::remove_true_twins(g);
    const auto reduced_mds = solve::exact_mds(reduction.reduced.graph);
    const auto lifted = reduction.lift_solution(reduced_mds);
    EXPECT_TRUE(solve::is_dominating_set(g, lifted));
  }
}

TEST(Properties, SpqrSkeletonRealEdgesPartitionGraph) {
  // Every real edge of the graph appears in exactly one skeleton.
  std::mt19937_64 rng(22360);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gen::random_maximal_outerplanar(12, rng);
    const auto tree = spqr::spqr_tree(g);
    std::map<std::pair<Vertex, Vertex>, int> real_count;
    for (const auto& node : tree.nodes) {
      for (const auto& e : node.edges) {
        if (!e.is_virtual) {
          ++real_count[{std::min(e.u, e.v), std::max(e.u, e.v)}];
        }
      }
    }
    EXPECT_EQ(real_count.size(), static_cast<std::size_t>(g.num_edges()));
    for (const auto& [edge, count] : real_count) {
      EXPECT_EQ(count, 1) << "edge {" << edge.first << "," << edge.second << "}";
      EXPECT_TRUE(g.has_edge(edge.first, edge.second));
    }
  }
}

TEST(Properties, ApollonianIsTriconnectedSingleRNode) {
  std::mt19937_64 rng(26457);
  const Graph g = graph::gen::apollonian(12, rng);
  const auto tree = spqr::spqr_tree(g);
  ASSERT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.nodes[0].type, spqr::NodeType::kR);
}

TEST(Properties, PrismIsSingleRNode) {
  // The triangular prism (C3 x K2) is 3-connected.
  graph::GraphBuilder b(6);
  b.add_cycle({0, 1, 2});
  b.add_cycle({3, 4, 5});
  b.add_edge(0, 3);
  b.add_edge(1, 4);
  b.add_edge(2, 5);
  const auto tree = spqr::spqr_tree(b.build());
  ASSERT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.nodes[0].type, spqr::NodeType::kR);
}

TEST(Properties, ExactMdsAgainstIndependentBruteForce) {
  // Cross-validate the set-cover B&B against a straight subset enumeration
  // on tiny graphs.
  std::mt19937_64 rng(33166);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gen::random_connected(9, 5, rng);
    const int n = g.num_vertices();
    int best = n;
    for (int mask = 0; mask < (1 << n); ++mask) {
      std::vector<Vertex> candidate;
      for (Vertex v = 0; v < n; ++v) {
        if (mask & (1 << v)) candidate.push_back(v);
      }
      if (static_cast<int>(candidate.size()) < best &&
          solve::is_dominating_set(g, candidate)) {
        best = static_cast<int>(candidate.size());
      }
    }
    EXPECT_EQ(solve::mds_size(g), best) << g.summary();
  }
}

TEST(Properties, Algorithm1SizeDecomposition) {
  // |S| <= |X| + |I| + |brute|, with equality up to overlaps, and each part
  // within its own lemma budget.
  std::mt19937_64 rng(36055);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_instance(rng, trial);
    core::Algorithm1Config cfg;
    cfg.t = 5;
    cfg.radius1 = 3;
    cfg.radius2 = 3;
    const auto result = core::algorithm1(g, cfg);
    EXPECT_LE(result.solution.size(), result.diag.one_cuts.size() +
                                          result.diag.two_cut_vertices.size() +
                                          result.diag.brute_forced.size() + 1u);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
  }
}

TEST(Properties, MaxK2tMonotoneUnderSubgraphs) {
  // Removing vertices can only lose minors.
  std::mt19937_64 rng(38729);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gen::random_connected(14, 8, rng);
    const int before = minor::max_k2t(g, 2);
    std::uniform_int_distribution<Vertex> pick(0, static_cast<Vertex>(g.num_vertices() - 1));
    const Vertex drop = pick(rng);
    const std::vector<Vertex> removed{drop};
    const auto sub = graph::remove_vertices(g, removed);
    EXPECT_LE(minor::max_k2t(sub.graph, 2), before) << g.summary();
  }
}

TEST(Properties, BallViewConsistencyUnderRelabeling) {
  // Shuffled identifiers never change which vertices are selected by an
  // id-free decision rule.
  std::mt19937_64 rng(41231);
  const Graph g = graph::gen::theta_chain(4, 3);
  const auto decide = [](const local::BallView& view) {
    return cuts::is_local_one_cut(view.graph, view.centre, 2);
  };
  const local::Network identity(g);
  const auto base = local::run_ball_algorithm(identity, 4, decide).selected;
  for (int trial = 0; trial < 4; ++trial) {
    const local::Network shuffled = local::Network::with_random_ids(g, rng);
    EXPECT_EQ(local::run_ball_algorithm(shuffled, 4, decide).selected, base);
  }
}

}  // namespace
}  // namespace lmds
