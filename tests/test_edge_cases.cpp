// Edge cases, failure injection and robustness sweeps across the public
// API: degenerate graphs (empty / single vertex / single edge /
// disconnected), solver budget exhaustion, lower-bound fallbacks, random
// identifier assignments, and LOCAL/centralized agreement for the MVC
// pipeline.

#include <gtest/gtest.h>

#include <random>

#include "asdim/cover.hpp"
#include "core/algorithm1.hpp"
#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/theorem44.hpp"
#include "ding/generators.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "local/runner.hpp"
#include "solve/exact_mds.hpp"
#include "solve/validate.hpp"
#include "support/algorithm2.hpp"

namespace lmds {
namespace {

using graph::Graph;
using graph::Vertex;

Graph single_vertex() { return Graph(std::vector<std::vector<Vertex>>(1)); }

// ---------------------------------------------------------------------------
// Degenerate inputs

TEST(EdgeCases, Theorem44SingleVertex) {
  const auto result = core::theorem44_mds(single_vertex());
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(EdgeCases, Theorem44SingleEdge) {
  // K2: true twins; exactly the representative survives.
  const auto result = core::theorem44_mds(graph::gen::path(2));
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(EdgeCases, Theorem44MvcSingleVertex) {
  EXPECT_TRUE(core::theorem44_mvc(single_vertex()).solution.empty());
}

TEST(EdgeCases, Algorithm1SingleVertex) {
  core::Algorithm1Config cfg;
  cfg.t = 2;
  const auto result = core::algorithm1(single_vertex(), cfg);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(EdgeCases, Algorithm1TinyGraphs) {
  core::Algorithm1Config cfg;
  cfg.t = 3;
  cfg.radius1 = 2;
  cfg.radius2 = 2;
  for (int n = 2; n <= 5; ++n) {
    const Graph g = graph::gen::path(n);
    const auto result = core::algorithm1(g, cfg);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution)) << "P" << n;
  }
}

TEST(EdgeCases, Algorithm1DisconnectedInput) {
  const Graph g = graph::disjoint_union(graph::gen::cycle(9), graph::gen::path(6));
  core::Algorithm1Config cfg;
  cfg.t = 3;
  cfg.radius1 = 3;
  cfg.radius2 = 3;
  const auto result = core::algorithm1(g, cfg);
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
}

TEST(EdgeCases, Algorithm1MvcDisconnected) {
  const Graph g = graph::disjoint_union(graph::gen::star(5), graph::gen::cycle(6));
  core::Algorithm1Config cfg;
  cfg.t = 3;
  cfg.radius1 = 3;
  cfg.radius2 = 3;
  const auto result = core::algorithm1_mvc(g, cfg);
  EXPECT_TRUE(solve::is_vertex_cover(g, result.solution));
}

TEST(EdgeCases, Theorem44DisconnectedWithIsolated) {
  // An isolated vertex must join any dominating set.
  std::vector<std::vector<Vertex>> adj(4);
  adj[0] = {1};
  adj[1] = {0};
  const Graph g(adj);
  const auto result = core::theorem44_mds(g);
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
  EXPECT_TRUE(std::binary_search(result.solution.begin(), result.solution.end(), Vertex{2}));
  EXPECT_TRUE(std::binary_search(result.solution.begin(), result.solution.end(), Vertex{3}));
}

TEST(EdgeCases, BaselinesTiny) {
  EXPECT_EQ(core::take_all(single_vertex()).size(), 1u);
  EXPECT_EQ(core::tree_degree_rule(single_vertex()), (std::vector<Vertex>{0}));
  EXPECT_TRUE(solve::is_dominating_set(single_vertex(), core::ksv_style(single_vertex(), 2)));
}

TEST(EdgeCases, CoverOfEmptyGraph) {
  const Graph g;
  const auto cover = asdim::bfs_band_cover(g, 2);
  EXPECT_TRUE(asdim::validate_cover(g, cover).is_cover);
}

// ---------------------------------------------------------------------------
// Failure injection

TEST(FailureInjection, SetCoverBudgetExhaustion) {
  // A 12x12 instance with a tiny node budget must throw, not loop.
  std::vector<std::vector<int>> sets;
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) sets.push_back({i, j});
  }
  EXPECT_THROW(solve::minimum_set_cover(sets, 12, 3), std::runtime_error);
}

TEST(FailureInjection, MetricsFallbackToLowerBound) {
  // A graph large and knotty enough that the budgeted exact solve may fail:
  // we only require a *consistent* report (ratio computed against whichever
  // reference was reached, exact flag truthful).
  std::mt19937_64 rng(4096);
  const Graph g = graph::gen::random_connected(400, 800, rng);
  const auto solution = core::take_all(g);
  const auto report = core::measure_mds_ratio(g, solution);
  EXPECT_GT(report.reference, 0);
  EXPECT_GE(report.ratio, 1.0);
}

TEST(FailureInjection, MvcMetricsLargeGraphUsesBound) {
  std::mt19937_64 rng(8192);
  const Graph g = graph::gen::random_connected(600, 900, rng);
  const auto report = core::measure_mvc_ratio(g, core::take_all(g));
  EXPECT_FALSE(report.exact);  // > 400 vertices: matching bound by policy
  EXPECT_GE(report.ratio, 1.0);
}

// ---------------------------------------------------------------------------
// Random identifiers: outputs remain valid and size-stable

TEST(RandomIds, Theorem44ValidUnderAnyIds) {
  std::mt19937_64 rng(555);
  const Graph g = graph::gen::clique_with_pendants(7);
  for (int trial = 0; trial < 5; ++trial) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    const auto result = core::theorem44_mds_local(net);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
    // Twin-class tie-breaks may move *which* representative joins, never
    // how many.
    EXPECT_EQ(result.solution.size(), core::theorem44_mds(g).solution.size());
  }
}

TEST(RandomIds, Theorem44MvcValidUnderAnyIds) {
  std::mt19937_64 rng(556);
  const Graph g = graph::disjoint_union(graph::gen::path(2), graph::gen::theta_chain(3, 2));
  for (int trial = 0; trial < 5; ++trial) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    const auto result = core::theorem44_mvc_local(net);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.solution));
  }
}

// ---------------------------------------------------------------------------
// MVC LOCAL path agrees with the centralized pipeline

TEST(MvcLocal, MatchesCentralized) {
  std::mt19937_64 rng(557);
  core::Algorithm1Config cfg;
  cfg.t = 5;
  cfg.radius1 = 3;
  cfg.radius2 = 3;
  std::vector<Graph> instances;
  instances.push_back(graph::gen::theta_chain(5, 3));
  instances.push_back(graph::gen::cycle(18));
  ding::CactusConfig ccfg;
  ccfg.pieces = 5;
  ccfg.t = 5;
  instances.push_back(ding::random_cactus_of_structures(ccfg, rng));
  for (const Graph& g : instances) {
    const local::Network net(g);
    const auto central = core::algorithm1_mvc(g, cfg);
    const auto distributed = core::algorithm1_mvc_local(net, cfg);
    EXPECT_EQ(central.solution, distributed.solution) << g.summary();
    EXPECT_EQ(central.diag.two_cut_vertices, distributed.diag.two_cut_vertices) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// Algorithm 2 driven by a *measured* control function (cross-module
// integration: asdim -> core)

TEST(Integration, Algorithm2WithMeasuredControl) {
  std::mt19937_64 rng(558);
  const Graph g = graph::gen::theta_chain(8, 3);
  core::Algorithm2Config cfg;
  cfg.d = 1;
  // Empirical control function of this instance (far below (5r+18)t): the
  // resulting radii are small but any radii yield a valid dominating set.
  cfg.f = [&g](int r) { return asdim::measured_control(g, r); };
  const auto result = core::algorithm2(g, cfg);
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
  // Quality: still constant-factor on this instance.
  EXPECT_LE(result.solution.size(), 3u * static_cast<std::size_t>(solve::mds_size(g)));
}

// ---------------------------------------------------------------------------
// Output hygiene

TEST(OutputHygiene, SortedUniqueInRange) {
  std::mt19937_64 rng(559);
  ding::CactusConfig ccfg;
  ccfg.pieces = 6;
  ccfg.t = 5;
  const Graph g = ding::random_cactus_of_structures(ccfg, rng);
  core::Algorithm1Config cfg;
  cfg.t = 5;
  cfg.radius1 = 3;
  cfg.radius2 = 3;
  for (const auto& solution :
       {core::algorithm1(g, cfg).solution, core::theorem44_mds(g).solution,
        core::algorithm1_mvc(g, cfg).solution, core::theorem44_mvc(g).solution}) {
    EXPECT_TRUE(std::is_sorted(solution.begin(), solution.end()));
    EXPECT_EQ(std::adjacent_find(solution.begin(), solution.end()), solution.end());
    for (Vertex v : solution) EXPECT_TRUE(g.has_vertex(v));
  }
}

}  // namespace
}  // namespace lmds
