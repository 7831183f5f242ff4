// Tests for the SPQR / triconnected decomposition and the §5.3
// interesting-2-cut forests (Proposition 5.7, Proposition 5.8).

#include <gtest/gtest.h>

#include <random>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/cut_forest.hpp"
#include "support/global_cuts.hpp"
#include "support/split_pairs.hpp"
#include "support/spqr_tree.hpp"

namespace lmds::spqr {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::Vertex;

TEST(Spqr, CycleIsSingleSNode) {
  const SpqrTree tree = spqr_tree(graph::gen::cycle(8));
  ASSERT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.nodes[0].type, NodeType::kS);
  EXPECT_EQ(tree.nodes[0].cycle_order.size(), 8u);
  EXPECT_TRUE(tree.tree_edges.empty());
}

TEST(Spqr, CompleteGraphIsSingleRNode) {
  const SpqrTree tree = spqr_tree(graph::gen::complete(5));
  ASSERT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.nodes[0].type, NodeType::kR);
}

TEST(Spqr, ThetaBundleIsPNodeWithSChildren) {
  // Two hubs joined by 3 parallel length-2 paths: P node + 3 S (triangle)
  // children.
  const Graph g = graph::gen::theta_chain(1, 3);
  const SpqrTree tree = spqr_tree(g);
  const auto p_nodes = tree.nodes_of_type(NodeType::kP);
  const auto s_nodes = tree.nodes_of_type(NodeType::kS);
  ASSERT_EQ(p_nodes.size(), 1u);
  EXPECT_EQ(s_nodes.size(), 3u);
  EXPECT_EQ(tree.num_nodes(), 4);
  EXPECT_EQ(tree.tree_edges.size(), 3u);
  // P node poles are the two hubs.
  EXPECT_EQ(tree.nodes[static_cast<std::size_t>(p_nodes[0])].vertices,
            (std::vector<Vertex>{0, 1}));
}

TEST(Spqr, CycleWithChordSplits) {
  // C6 + chord {0,3}: P node on {0,3} with the chord and two S children.
  GraphBuilder b(6);
  b.add_cycle({0, 1, 2, 3, 4, 5});
  b.add_edge(0, 3);
  const SpqrTree tree = spqr_tree(b.build());
  EXPECT_EQ(tree.nodes_of_type(NodeType::kP).size(), 1u);
  EXPECT_EQ(tree.nodes_of_type(NodeType::kS).size(), 2u);
}

TEST(Spqr, TreeIsATree) {
  std::mt19937_64 rng(229);
  for (int trial = 0; trial < 5; ++trial) {
    // Random maximal outerplanar graphs are 2-connected.
    const Graph g = graph::gen::random_maximal_outerplanar(12, rng);
    const SpqrTree tree = spqr_tree(g);
    EXPECT_EQ(tree.tree_edges.size(), static_cast<std::size_t>(tree.num_nodes() - 1));
  }
}

TEST(Spqr, VirtualEdgesComeInPairs) {
  const Graph g = graph::gen::theta_chain(1, 4);  // single link: 2-connected
  const SpqrTree tree = spqr_tree(g);
  int virtual_edges = 0;
  for (const SpqrNode& node : tree.nodes) {
    for (const SkeletonEdge& e : node.edges) {
      if (e.is_virtual) {
        ++virtual_edges;
        ASSERT_GE(e.peer, 0);
        ASSERT_LT(e.peer, tree.num_nodes());
      }
    }
  }
  EXPECT_EQ(virtual_edges % 2, 0);
  EXPECT_EQ(virtual_edges / 2, static_cast<int>(tree.tree_edges.size()));
}

TEST(Spqr, RejectsNonBiconnected) {
  EXPECT_THROW(spqr_tree(graph::gen::path(5)), std::invalid_argument);
  EXPECT_THROW(spqr_tree(graph::gen::star(5)), std::invalid_argument);
}

TEST(Spqr, Proposition57AllTwoCutsDisplayed) {
  // Every minimal 2-cut must appear among the displayed pairs.
  std::mt19937_64 rng(233);
  std::vector<Graph> instances;
  instances.push_back(graph::gen::theta_chain(1, 3));
  instances.push_back(graph::gen::cycle(9));
  instances.push_back(graph::gen::random_maximal_outerplanar(10, rng));
  {
    GraphBuilder b(6);
    b.add_cycle({0, 1, 2, 3, 4, 5});
    b.add_edge(0, 3);
    instances.push_back(b.build());
  }
  for (const Graph& g : instances) {
    const auto displayed = displayed_pairs(spqr_tree(g));
    for (const cuts::VertexPair cut : cuts::minimal_two_cuts(g)) {
      EXPECT_TRUE(std::binary_search(displayed.begin(), displayed.end(), cut))
          << g.summary() << " cut {" << cut.u << "," << cut.v << "}";
    }
  }
}

// ---------------------------------------------------------------------------
// Crossing predicate

TEST(Crossing, OppositeCutsOfC6Cross) {
  const Graph g = graph::gen::cycle(6);
  EXPECT_TRUE(cuts_cross(g, {0, 3}, {1, 4}));
  EXPECT_TRUE(cuts_cross(g, {1, 4}, {2, 5}));
}

TEST(Crossing, NestedCutsDoNotCross) {
  const Graph g = graph::gen::cycle(10);
  EXPECT_FALSE(cuts_cross(g, {0, 7}, {1, 6}));
  EXPECT_FALSE(cuts_cross(g, {1, 6}, {2, 5}));
}

TEST(Crossing, SharedVertexNeverCrosses) {
  const Graph g = graph::gen::cycle(8);
  EXPECT_FALSE(cuts_cross(g, {0, 4}, {4, 1}));
  EXPECT_FALSE(cuts_cross(g, {0, 4}, {0, 3}));
}

TEST(SplitPairs, ContainsEdgesAndCuts) {
  const Graph g = graph::gen::cycle(5);
  const auto pairs = split_pairs(g);
  // 5 edges + 5 non-adjacent pairs (all are minimal 2-cuts in a cycle).
  EXPECT_EQ(pairs.size(), 10u);
}

// ---------------------------------------------------------------------------
// Cut forests (Proposition 5.8)

void check_proposition_58(const Graph& g, const std::string& label) {
  const CutForest forest = interesting_cut_forest(g);

  // Property 2: within each family, cuts are pairwise non-crossing.
  for (const auto& family : forest.families) {
    for (std::size_t i = 0; i < family.size(); ++i) {
      for (std::size_t j = i + 1; j < family.size(); ++j) {
        EXPECT_FALSE(cuts_cross(g, family[i], family[j]))
            << label << ": {" << family[i].u << "," << family[i].v << "} x {"
            << family[j].u << "," << family[j].v << "}";
      }
    }
  }

  // Property 1: every globally interesting vertex appears in some family
  // with a friend certifying it.
  const auto all = forest.all();
  for (Vertex v : cuts::globally_interesting_vertices(g)) {
    bool displayed = false;
    for (const cuts::VertexPair cut : all) {
      if (cut.u == v && cuts::certifies_globally_interesting(g, v, cut.v)) displayed = true;
      if (cut.v == v && cuts::certifies_globally_interesting(g, v, cut.u)) displayed = true;
    }
    EXPECT_TRUE(displayed) << label << ": interesting vertex " << v << " not displayed";
  }
}

TEST(CutForest, CyclesOfAllLengths) {
  for (int k = 3; k <= 14; ++k) {
    check_proposition_58(graph::gen::cycle(k), "C" + std::to_string(k));
  }
}

TEST(CutForest, ThetaChains) {
  check_proposition_58(graph::gen::theta_chain(3, 3), "theta(3,3)");
  check_proposition_58(graph::gen::theta_chain(4, 2), "theta(4,2)");
}

TEST(CutForest, CycleWithChord) {
  GraphBuilder b(8);
  b.add_cycle({0, 1, 2, 3, 4, 5, 6, 7});
  b.add_edge(0, 4);
  check_proposition_58(b.build(), "C8+chord");
}

TEST(CutForest, Outerplanar) {
  std::mt19937_64 rng(239);
  for (int trial = 0; trial < 4; ++trial) {
    check_proposition_58(graph::gen::random_maximal_outerplanar(10, rng), "outerplanar");
  }
}

TEST(CutForest, CliqueHasNoCuts) {
  const CutForest forest = interesting_cut_forest(graph::gen::complete(6));
  EXPECT_TRUE(forest.all().empty());
}

}  // namespace
}  // namespace lmds::spqr
