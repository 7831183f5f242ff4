// Tests for the LOCAL-model simulator: networks, flooding knowledge
// propagation, ball views (message-passing vs direct cut), and the
// ball-decision runner.

#include <gtest/gtest.h>

#include <random>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "local/runner.hpp"
#include "local/simulator.hpp"
#include "local/view.hpp"

namespace lmds::local {
namespace {

using graph::Graph;
using graph::Vertex;

TEST(Network, DefaultIdsAreIdentity) {
  const Network net(graph::gen::path(4));
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(net.id_of(v), static_cast<NodeId>(v));
}

TEST(Network, RejectsDuplicateIds) {
  EXPECT_THROW(Network(graph::gen::path(3), {1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(Network(graph::gen::path(3), {1, 2}), std::invalid_argument);
}

TEST(Network, RandomIdsUnique) {
  std::mt19937_64 rng(137);
  const Network net = Network::with_random_ids(graph::gen::cycle(50), rng);
  std::set<NodeId> ids(net.ids().begin(), net.ids().end());
  EXPECT_EQ(ids.size(), 50u);
}

// ---------------------------------------------------------------------------
// Flooding

TEST(Flooding, InitialKnowledgeIsIncidentEdges) {
  const Network net(graph::gen::path(4));  // edges (0,1),(1,2),(2,3)
  FloodingState state(net);
  EXPECT_EQ(state.known_edges(0), (std::vector<int>{0}));
  EXPECT_EQ(state.known_edges(1), (std::vector<int>{0, 1}));
}

TEST(Flooding, KnowledgeSpreadsOneHopPerRound) {
  const Network net(graph::gen::path(5));
  FloodingState state(net);
  TrafficStats stats;
  state.step(stats);
  // After one round, node 0 knows edges within distance 1: (0,1),(1,2).
  EXPECT_EQ(state.known_edges(0), (std::vector<int>{0, 1}));
  state.step(stats);
  EXPECT_EQ(state.known_edges(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(stats.rounds, 2);
}

TEST(Flooding, MessagesPerRoundEqualsDirectedEdges) {
  const Network net(graph::gen::cycle(7));
  FloodingState state(net);
  TrafficStats stats;
  state.step(stats);
  EXPECT_EQ(stats.messages, 14u);
  state.step(stats);
  EXPECT_EQ(stats.messages, 28u);
}

TEST(Flooding, EventuallyEveryoneKnowsEverything) {
  std::mt19937_64 rng(139);
  const Graph g = graph::gen::random_connected(20, 6, rng);
  const Network net(g);
  FloodingState state(net);
  TrafficStats stats;
  state.run(graph::diameter(g) + 1, stats);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(state.known_edges(v).size(), static_cast<std::size_t>(g.num_edges()));
  }
}

TEST(Flooding, BytesGrowMonotonically) {
  const Network net(graph::gen::cycle(10));
  FloodingState state(net);
  TrafficStats stats;
  state.step(stats);
  const auto bytes_round1 = stats.bytes;
  state.step(stats);
  EXPECT_GT(stats.bytes, bytes_round1);
}

// ---------------------------------------------------------------------------
// Views

TEST(Views, CutViewMatchesBall) {
  const Graph g = graph::gen::cycle(12);
  const Network net(g);
  const BallView view = cut_view(net, 0, 3);
  EXPECT_EQ(view.num_vertices(), 7);  // 0, ±1, ±2, ±3
  EXPECT_EQ(view.dist[static_cast<std::size_t>(view.centre)], 0);
  EXPECT_EQ(view.radius, 3);
  // The view graph is the induced path 9-10-11-0-1-2-3.
  EXPECT_EQ(view.graph.num_edges(), 6);
}

TEST(Views, GatheredViewsMatchCutViews) {
  std::mt19937_64 rng(149);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::gen::random_connected(18, 6, rng);
    const Network net = Network::with_random_ids(g, rng);
    for (const int radius : {0, 1, 2, 3}) {
      const auto views = gather_views(net, radius);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const BallView direct = cut_view(net, v, radius);
        const BallView& flooded = views[static_cast<std::size_t>(v)];
        EXPECT_EQ(flooded.graph, direct.graph);
        EXPECT_EQ(flooded.ids, direct.ids);
        EXPECT_EQ(flooded.dist, direct.dist);
        EXPECT_EQ(flooded.centre, direct.centre);
      }
    }
  }
}

TEST(Views, RadiusZeroIsSelfOnly) {
  const Network net(graph::gen::complete(5));
  const auto views = gather_views(net, 0);
  for (const auto& view : views) {
    EXPECT_EQ(view.num_vertices(), 1);
    EXPECT_EQ(view.graph.num_edges(), 0);
  }
}

TEST(Views, ViewRoundsAreRadiusPlusOne) {
  const Network net(graph::gen::path(9));
  TrafficStats stats;
  gather_views(net, 3, &stats);
  EXPECT_EQ(stats.rounds, 4);
}

TEST(Views, IdsPreserved) {
  const Graph g = graph::gen::star(5);
  const Network net(g, {100, 200, 300, 400, 500});
  const BallView view = cut_view(net, 0, 1);
  EXPECT_EQ(view.num_vertices(), 5);
  EXPECT_EQ(view.ids[static_cast<std::size_t>(view.centre)], 100u);
  EXPECT_NE(view.local_index_of(300), graph::kNoVertex);
  EXPECT_EQ(view.local_index_of(999), graph::kNoVertex);
}

TEST(Views, InnerBall) {
  const Network net(graph::gen::path(9));
  const BallView view = cut_view(net, 4, 3);
  EXPECT_EQ(view.inner_ball(1).size(), 3u);
  EXPECT_EQ(view.inner_ball(3).size(), 7u);
}

TEST(Views, DistancesInsideViewAreGlobal) {
  // Distances measured inside the trimmed ball equal global distances for
  // vertices within the radius.
  std::mt19937_64 rng(151);
  const Graph g = graph::gen::random_connected(20, 8, rng);
  const Network net(g);
  const int radius = 3;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const BallView view = cut_view(net, v, radius);
    const auto global_dist = graph::bfs_distances(g, v);
    for (Vertex local = 0; local < view.num_vertices(); ++local) {
      const Vertex global = static_cast<Vertex>(view.ids[static_cast<std::size_t>(local)]);
      EXPECT_EQ(view.dist[static_cast<std::size_t>(local)],
                global_dist[static_cast<std::size_t>(global)]);
    }
  }
}

// ---------------------------------------------------------------------------
// Runner

TEST(Runner, DegreeRuleOnStar) {
  // "Join if I have >= 2 neighbours" — the folklore tree rule. On a star
  // only the centre joins.
  const Network net(graph::gen::star(8));
  const auto decide = [](const BallView& view) {
    return view.graph.degree(view.centre) >= 2;
  };
  const RunResult result = run_ball_algorithm(net, 1, decide);
  EXPECT_EQ(result.selected, (std::vector<Vertex>{0}));
  EXPECT_EQ(result.traffic.rounds, 2);
  EXPECT_GT(result.traffic.messages, 0u);
}

TEST(Runner, DecisionsDependOnlyOnView) {
  // Two networks that agree on a node's r-ball (including ids) must produce
  // the same decision at that node: a long path and a long cycle agree
  // around their middles.
  const int radius = 2;
  const Network path_net(graph::gen::path(11));
  const Network cycle_net(graph::gen::cycle(11));
  const auto decide = [](const BallView& view) {
    return view.graph.num_edges() % 2 == 0;
  };
  const BallView path_view = cut_view(path_net, 5, radius);
  // Vertex 5 of the cycle has the same ids 3..7 in its 2-ball and the same
  // path topology.
  const BallView cycle_view = cut_view(cycle_net, 5, radius);
  EXPECT_EQ(path_view.graph, cycle_view.graph);
  EXPECT_EQ(decide(path_view), decide(cycle_view));
}

}  // namespace
}  // namespace lmds::local
