// Tests for the paper's algorithms: constants, Theorem 4.4 (3-round rule),
// Algorithm 1 (Theorem 4.1), Algorithm 2 (Theorem 4.3), the MVC variants and
// the baselines.

#include <gtest/gtest.h>

#include <random>

#include "core/algorithm1.hpp"
#include "core/baselines.hpp"
#include "core/constants.hpp"
#include "core/metrics.hpp"
#include "core/theorem44.hpp"
#include "ding/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "solve/exact_mds.hpp"
#include "solve/exact_mvc.hpp"
#include "solve/tree_dp.hpp"
#include "solve/validate.hpp"
#include "support/algorithm2.hpp"

namespace lmds::core {
namespace {

using graph::Graph;
using graph::Vertex;

// ---------------------------------------------------------------------------
// Constants

TEST(Constants, RadiiFormulas) {
  const PaperConstants c{.t = 4, .d = 1};
  // f(r) = (5r+18)t: f(5) = 43*4 = 172, f(11) = 73*4 = 292.
  EXPECT_EQ(c.m32(), 172 + 2);
  EXPECT_EQ(c.m33(), 292 + 5);
}

TEST(Constants, ChargingConstants) {
  const PaperConstants c{.t = 2, .d = 1};
  EXPECT_EQ(c.c32(), 6);
  EXPECT_EQ(c.c33(), 44);
  // Reproduction finding: the printed constants sum to 51, not the claimed
  // 50 (Theorem 4.1 states c3.2(1) + c3.3(1) + 1 = 50).
  EXPECT_EQ(c.derived_ratio(), 51);
  EXPECT_EQ(PaperConstants::kClaimedRatio, 50);
}

TEST(Constants, Theorem44Ratios) {
  const PaperConstants c{.t = 7, .d = 1};
  EXPECT_EQ(c.theorem44_mds_ratio(), 13);
  EXPECT_EQ(c.theorem44_mvc_ratio(), 7);
}

// ---------------------------------------------------------------------------
// Theorem 4.4 — MDS

TEST(Theorem44, OutputDominates) {
  std::mt19937_64 rng(163);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(40, 20, rng);
    const auto result = theorem44_mds(g);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
    EXPECT_EQ(result.diag.rounds, 3);
  }
}

TEST(Theorem44, FanDominatedByCentre) {
  // In a fan, N[p_i] ⊆ N[centre] strictly for every path vertex, so only
  // the centre survives.
  const Graph g = ding::fan(6);
  const auto result = theorem44_mds(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(Theorem44, CliqueCollapsesToOneVertex) {
  // All of K_n is one twin class; the representative has no strict superset.
  const auto result = theorem44_mds(graph::gen::complete(7));
  EXPECT_EQ(result.solution.size(), 1u);
}

TEST(Theorem44, CliqueWithPendantsSmall) {
  // §4 example: MDS = 1. Vertex 0 strictly contains every other clique
  // vertex's neighbourhood; pendants are strictly inside {0, v}'s. The rule
  // keeps exactly vertex 0.
  const Graph g = graph::gen::clique_with_pendants(8);
  const auto result = theorem44_mds(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(Theorem44, RespectsRatioOnThetaChains) {
  // Theta chains are K_{2,p+1}-minor-free; the guarantee is 2(p+1)-1.
  for (const int parallel : {2, 3, 4}) {
    const int t = parallel + 1;
    const Graph g = graph::gen::theta_chain(8, parallel);
    const auto result = theorem44_mds(g);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
    const int opt = solve::mds_size(g);
    EXPECT_LE(result.solution.size(), static_cast<std::size_t>((2 * t - 1) * opt))
        << "t=" << t;
  }
}

TEST(Theorem44, ThetaChainTakesEverything) {
  // On theta chains nothing strictly contains anything: the rule keeps all
  // vertices — this is exactly the Θ(t)-ratio worst case of the bench E2.
  const Graph g = graph::gen::theta_chain(4, 3);
  const auto result = theorem44_mds(g);
  EXPECT_EQ(result.solution.size(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(Theorem44, LocalMatchesCentralized) {
  std::mt19937_64 rng(167);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::gen::random_connected(25, 12, rng);
    const local::Network net(g);  // identity ids to match centralized
    const auto central = theorem44_mds(g);
    const auto distributed = theorem44_mds_local(net);
    EXPECT_EQ(central.solution, distributed.solution);
    EXPECT_EQ(distributed.diag.traffic.rounds, 3);
    EXPECT_GT(distributed.diag.traffic.messages, 0u);
  }
}

TEST(Theorem44, OutperformedByExactOnTrees) {
  std::mt19937_64 rng(171);
  const Graph g = graph::gen::random_tree(60, rng);
  const auto result = theorem44_mds(g);
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
  EXPECT_GE(result.solution.size(), static_cast<std::size_t>(solve::tree_mds_size(g)));
}

// ---------------------------------------------------------------------------
// Theorem 4.4 — MVC

TEST(Theorem44Mvc, OutputCovers) {
  std::mt19937_64 rng(173);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(30, 20, rng);
    const auto result = theorem44_mvc(g);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.solution));
  }
}

TEST(Theorem44Mvc, IsolatedEdgeTakesOneEndpoint) {
  const Graph g = graph::disjoint_union(graph::gen::path(2), graph::gen::path(2));
  const auto result = theorem44_mvc(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0, 2}));
}

TEST(Theorem44Mvc, PendantLeavesExcluded) {
  const Graph g = graph::gen::star(6);
  const auto result = theorem44_mvc(g);
  EXPECT_EQ(result.solution, (std::vector<Vertex>{0}));
}

TEST(Theorem44Mvc, RatioOnThetaChains) {
  for (const int parallel : {2, 3, 4}) {
    const int t = parallel + 1;
    const Graph g = graph::gen::theta_chain(6, parallel);
    const auto result = theorem44_mvc(g);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.solution));
    EXPECT_LE(result.solution.size(),
              static_cast<std::size_t>(t * solve::mvc_size(g)))
        << "t=" << t;
  }
}

TEST(Theorem44Mvc, LocalMatchesCentralized) {
  std::mt19937_64 rng(179);
  const Graph g = graph::gen::random_connected(25, 10, rng);
  const local::Network net(g);
  EXPECT_EQ(theorem44_mvc(g).solution, theorem44_mvc_local(net).solution);
}

// ---------------------------------------------------------------------------
// Algorithm 1

Algorithm1Config small_radius_config(int t, int r1, int r2) {
  Algorithm1Config cfg;
  cfg.t = t;
  cfg.radius1 = r1;
  cfg.radius2 = r2;
  return cfg;
}

TEST(Algorithm1, OutputDominatesAcrossFamilies) {
  std::mt19937_64 rng(181);
  const auto check = [](const Graph& g, const Algorithm1Config& cfg) {
    const auto result = algorithm1(g, cfg);
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution)) << g.summary();
  };
  check(graph::gen::cycle(30), small_radius_config(3, 3, 3));
  check(graph::gen::theta_chain(6, 4), small_radius_config(5, 3, 3));
  check(graph::gen::clique_with_pendants(7), small_radius_config(7, 2, 2));
  for (int trial = 0; trial < 5; ++trial) {
    check(graph::gen::random_tree(40, rng), small_radius_config(2, 3, 3));
    ding::CactusConfig cc;
    cc.pieces = 5;
    cc.t = 5;
    check(ding::random_cactus_of_structures(cc, rng), small_radius_config(5, 3, 3));
  }
}

TEST(Algorithm1, PaperConstantRadiiOnSmallGraphs) {
  // With the true paper radii (hundreds), every ball is the whole graph on
  // small instances: local cuts = global cuts and the run still dominates.
  const Graph g = graph::gen::theta_chain(4, 2);
  Algorithm1Config cfg;
  cfg.t = 3;  // radii default to m32 = 131, m33 = 224
  EXPECT_EQ(cfg.effective_radius1(), 43 * 3 + 2);
  EXPECT_EQ(cfg.effective_radius2(), 73 * 3 + 5);
  const auto result = algorithm1(g, cfg);
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
}

TEST(Algorithm1, ThetaChainTakesInteriorHubsAndStaysConstant) {
  // The headline behaviour: on theta chains the D2 rule keeps everything
  // (ratio ~ 2t) while Algorithm 1 keeps interior hubs + brute-forced bits,
  // independent of t.
  for (const int parallel : {3, 5, 8}) {
    const Graph g = graph::gen::theta_chain(8, parallel);
    const auto result = algorithm1(g, small_radius_config(parallel + 1, 4, 4));
    EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
    const int opt = solve::mds_size(g);
    // Constant multiple regardless of t (generous constant, far below the
    // D2 rule's ~2t·opt ≈ n).
    EXPECT_LE(result.solution.size(), static_cast<std::size_t>(6 * opt))
        << "parallel=" << parallel;
    const auto d2 = theorem44_mds(g);
    EXPECT_GT(d2.solution.size(), result.solution.size());
  }
}

TEST(Algorithm1, CycleHandledByOneCuts) {
  // On a long cycle every vertex is a local 1-cut: X = V, no brute force.
  const Graph g = graph::gen::cycle(24);
  const auto result = algorithm1(g, small_radius_config(3, 3, 3));
  EXPECT_EQ(result.diag.one_cuts.size(), 24u);
  EXPECT_TRUE(result.diag.two_cut_vertices.empty());
  EXPECT_EQ(result.diag.residual_components, 0);
}

TEST(Algorithm1, CliqueWithPendantsStaysSmall) {
  // MDS = 1; no interesting vertices; twin removal and brute force must keep
  // the output tiny even though there are n-1 two-cuts.
  const Graph g = graph::gen::clique_with_pendants(9);
  const auto result = algorithm1(g, small_radius_config(9, 2, 2));
  EXPECT_TRUE(solve::is_dominating_set(g, result.solution));
  EXPECT_LE(result.solution.size(), 3u);
}

TEST(Algorithm1, DiagnosticsConsistent) {
  const Graph g = graph::gen::theta_chain(6, 3);
  const auto result = algorithm1(g, small_radius_config(4, 3, 3));
  // Every diagnostic vertex really is in the output.
  for (Vertex v : result.diag.one_cuts) {
    EXPECT_TRUE(std::binary_search(result.solution.begin(),
                                   result.solution.end(), v));
  }
  for (Vertex v : result.diag.two_cut_vertices) {
    EXPECT_TRUE(std::binary_search(result.solution.begin(),
                                   result.solution.end(), v));
  }
  EXPECT_GE(result.diag.rounds, 1);
}

TEST(Algorithm1, LocalMatchesCentralized) {
  std::mt19937_64 rng(191);
  for (int trial = 0; trial < 4; ++trial) {
    ding::CactusConfig cc;
    cc.pieces = 4;
    cc.max_piece_size = 7;
    cc.t = 5;
    const Graph g = ding::random_cactus_of_structures(cc, rng);
    const local::Network net(g);
    const auto cfg = small_radius_config(5, 3, 3);
    const auto central = algorithm1(g, cfg);
    const auto distributed = algorithm1_local(net, cfg);
    EXPECT_EQ(central.solution, distributed.solution) << g.summary();
    EXPECT_GT(distributed.diag.traffic.messages, 0u);
  }
}

TEST(Algorithm1, LocalMatchesCentralizedOnThetaAndCycle) {
  const auto cfg = small_radius_config(4, 3, 3);
  for (const Graph& g : {graph::gen::theta_chain(5, 3), graph::gen::cycle(20)}) {
    const local::Network net(g);
    EXPECT_EQ(algorithm1(g, cfg).solution,
              algorithm1_local(net, cfg).solution);
  }
}

TEST(Algorithm1, LocalEqualsCentralizedFieldForField) {
  // Both variants, random ids, twin removal on and off, 1 and 4 threads:
  // every result field but the LOCAL run's traffic equals the centralized
  // run's.
  std::mt19937_64 rng(197);
  ding::CactusConfig cc;
  cc.pieces = 4;
  cc.max_piece_size = 6;
  cc.t = 5;
  const std::vector<Graph> graphs = {
      graph::gen::theta_chain(4, 3),
      graph::gen::cycle(14),
      graph::gen::clique_with_pendants(6),
      graph::gen::random_maximal_outerplanar(14, rng),
      graph::gen::random_tree(18, rng),
      ding::random_cactus_of_structures(cc, rng)};
  for (const Graph& g : graphs) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    for (const bool twin_removal : {true, false}) {
      Algorithm1Config cfg = small_radius_config(5, 3, 3);
      cfg.twin_removal = twin_removal;
      const SolverOutput mds = algorithm1(g, cfg);
      const SolverOutput mvc = algorithm1_mvc(g, cfg);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(g.summary() + " twin_removal=" + std::to_string(twin_removal) +
                     " threads=" + std::to_string(threads));
        const SolverOutput mds_local = algorithm1_local(net, cfg, threads);
        EXPECT_EQ(mds_local.solution, mds.solution);
        EXPECT_EQ(mds_local.diag.twin_classes, mds.diag.twin_classes);
        EXPECT_EQ(mds_local.diag.one_cuts, mds.diag.one_cuts);
        EXPECT_EQ(mds_local.diag.two_cut_vertices, mds.diag.two_cut_vertices);
        EXPECT_EQ(mds_local.diag.brute_forced, mds.diag.brute_forced);
        EXPECT_EQ(mds_local.diag.residual_components, mds.diag.residual_components);
        EXPECT_EQ(mds_local.diag.max_residual_diameter, mds.diag.max_residual_diameter);
        EXPECT_EQ(mds_local.diag.rounds, mds.diag.rounds);

        const SolverOutput mvc_local = algorithm1_mvc_local(net, cfg, threads);
        EXPECT_EQ(mvc_local.solution, mvc.solution);
        EXPECT_EQ(mvc_local.diag.one_cuts, mvc.diag.one_cuts);
        EXPECT_EQ(mvc_local.diag.two_cut_vertices, mvc.diag.two_cut_vertices);
        EXPECT_EQ(mvc_local.diag.brute_forced, mvc.diag.brute_forced);
        EXPECT_EQ(mvc_local.diag.residual_components, mvc.diag.residual_components);
        EXPECT_EQ(mvc_local.diag.max_residual_diameter, mvc.diag.max_residual_diameter);
        EXPECT_EQ(mvc_local.diag.rounds, mvc.diag.rounds);
      }
    }
  }
}

TEST(Algorithm1, TwinRemovalAblation) {
  // Without twin removal the output can only get larger on twin-heavy
  // graphs, but must still dominate.
  const Graph g = graph::gen::clique_with_pendants(8);
  auto cfg = small_radius_config(8, 2, 2);
  cfg.twin_removal = false;
  const auto no_twin = algorithm1(g, cfg);
  EXPECT_TRUE(solve::is_dominating_set(g, no_twin.solution));
  cfg.twin_removal = true;
  const auto with_twin = algorithm1(g, cfg);
  EXPECT_LE(with_twin.solution.size(), no_twin.solution.size());
}

// ---------------------------------------------------------------------------
// Algorithm 2

TEST(Algorithm2, MatchesAlgorithm1WithSameRadii) {
  const Graph g = graph::gen::theta_chain(5, 3);
  Algorithm2Config cfg2;
  cfg2.d = 1;
  cfg2.f = [](int) { return 1; };  // f(5)+2 = 3, f(11)+5 = 6
  const auto result2 = algorithm2(g, cfg2);
  Algorithm1Config cfg1;
  cfg1.radius1 = 3;
  cfg1.radius2 = 6;
  const auto result1 = algorithm1(g, cfg1);
  EXPECT_EQ(result1.solution, result2.solution);
}

TEST(Algorithm2, RequiresControlFunction) {
  Algorithm2Config cfg;
  EXPECT_THROW(algorithm2(graph::gen::path(4), cfg), std::invalid_argument);
}

TEST(Algorithm2, RatioFormula) {
  EXPECT_EQ(algorithm2_ratio(1), 51);
  EXPECT_EQ(algorithm2_ratio(2), 76);
}

TEST(Algorithm2, LocalMatchesCentralized) {
  const Graph g = graph::gen::theta_chain(4, 3);
  Algorithm2Config cfg;
  cfg.d = 1;
  cfg.f = [](int) { return 1; };
  const local::Network net(g);
  EXPECT_EQ(algorithm2(g, cfg).solution, algorithm2_local(net, cfg).solution);
}

TEST(Algorithm1, RoundAccountingFormula) {
  // rounds = 2 (twin) + (max(r1, 2*r2) + 1) + (residual diameter + 3).
  const Graph g = graph::gen::theta_chain(6, 3);
  Algorithm1Config cfg;
  cfg.t = 4;
  cfg.radius1 = 3;
  cfg.radius2 = 4;
  const auto result = algorithm1(g, cfg);
  EXPECT_EQ(result.diag.rounds, 2 + (8 + 1) + (result.diag.max_residual_diameter + 3));
  cfg.twin_removal = false;
  const auto no_twin = algorithm1(g, cfg);
  EXPECT_EQ(no_twin.diag.rounds, (8 + 1) + (no_twin.diag.max_residual_diameter + 3));
}

TEST(Algorithm1, ConfigRangeCheckedOnEveryEntryPoint) {
  // Outside the ranges the paper radius 73t + 5 or the view radius 2·r2
  // overflows int; the registry adapter used to be the only check.
  const Graph g = graph::gen::path(5);
  const local::Network net(g);
  const Algorithm1Config bad[] = {
      {.t = 30'000'000, .radius1 = 0, .radius2 = 0},
      {.t = 0, .radius1 = 3, .radius2 = 3},
      {.t = -3},
      {.radius1 = Algorithm1Config::kMaxRadius + 1},
      {.radius2 = 2'000'000'000},
  };
  for (const Algorithm1Config& cfg : bad) {
    EXPECT_THROW((void)algorithm1(g, cfg), std::invalid_argument) << cfg.t;
    EXPECT_THROW((void)algorithm1_local(net, cfg), std::invalid_argument) << cfg.t;
    EXPECT_THROW((void)algorithm1_mvc(g, cfg), std::invalid_argument) << cfg.t;
    EXPECT_THROW((void)algorithm1_mvc_local(net, cfg), std::invalid_argument) << cfg.t;
  }
  Algorithm2Config too_far;  // f(5) + 2 = kMaxRadius + 1
  too_far.f = [](int r) { return r * (Algorithm1Config::kMaxRadius / 5); };
  EXPECT_THROW((void)algorithm2(g, too_far), std::invalid_argument);
  EXPECT_THROW((void)algorithm2_local(net, too_far), std::invalid_argument);
  // The ends of each range are accepted.
  const Algorithm1Config edge{.t = Algorithm1Config::kMaxClassParameter,
                              .radius1 = 4,
                              .radius2 = Algorithm1Config::kMaxRadius};
  EXPECT_TRUE(solve::is_dominating_set(g, algorithm1(g, edge).solution));
  EXPECT_TRUE(solve::is_vertex_cover(g, algorithm1_mvc(g, {.t = 1, .radius1 = -7}).solution));
}

// ---------------------------------------------------------------------------
// Algorithm 1 MVC variant

TEST(Algorithm1Mvc, OutputCoversAcrossFamilies) {
  std::mt19937_64 rng(193);
  const auto cfg = small_radius_config(5, 3, 3);
  const auto check = [&](const Graph& g) {
    const auto result = algorithm1_mvc(g, cfg);
    EXPECT_TRUE(solve::is_vertex_cover(g, result.solution)) << g.summary();
  };
  check(graph::gen::cycle(25));
  check(graph::gen::theta_chain(5, 4));
  check(graph::gen::clique_with_pendants(6));
  for (int trial = 0; trial < 4; ++trial) {
    check(graph::gen::random_tree(30, rng));
  }
}

TEST(Algorithm1Mvc, ConstantFactorOnThetaChains) {
  for (const int parallel : {3, 5}) {
    const Graph g = graph::gen::theta_chain(7, parallel);
    const auto result = algorithm1_mvc(g, small_radius_config(parallel + 1, 3, 3));
    const int opt = solve::mvc_size(g);
    EXPECT_LE(result.solution.size(), static_cast<std::size_t>(6 * opt));
  }
}

// ---------------------------------------------------------------------------
// Baselines

TEST(Baselines, TakeAllIsEverything) {
  EXPECT_EQ(take_all(graph::gen::path(5)).size(), 5u);
}

TEST(Baselines, TakeAllRatioBoundOnBoundedDegree) {
  // Footnote 4: on max-degree-(t-1) graphs, n <= t * MDS.
  std::mt19937_64 rng(197);
  const int t = 5;
  const Graph g = graph::gen::random_max_degree(50, t - 1, 20, rng);
  const int opt = solve::mds_size(g);
  EXPECT_LE(static_cast<int>(take_all(g).size()), t * opt);
}

TEST(Baselines, TreeDegreeRuleDominatesAndIs3Approx) {
  std::mt19937_64 rng(199);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_tree(50, rng);
    const auto rule = tree_degree_rule(g);
    EXPECT_TRUE(solve::is_dominating_set(g, rule));
    EXPECT_LE(rule.size(), static_cast<std::size_t>(3 * solve::tree_mds_size(g)));
  }
}

TEST(Baselines, TreeDegreeRuleTinyComponents) {
  EXPECT_EQ(tree_degree_rule(graph::gen::path(2)), (std::vector<Vertex>{0}));
  EXPECT_EQ(tree_degree_rule(graph::Graph(std::vector<std::vector<Vertex>>(1))),
            (std::vector<Vertex>{0}));
}

TEST(Baselines, GammaValues) {
  const Graph g = graph::gen::star(6);
  // Centre: no other vertex dominates N[centre] (leaves are pairwise
  // non-adjacent): gamma = 5 > cap.
  EXPECT_GT(gamma(g, 0, 3), 3);
  // Leaf: the centre alone dominates N[leaf].
  EXPECT_EQ(gamma(g, 1, 3), 1);
  // Isolated vertex: nothing else covers it.
  const Graph iso(std::vector<std::vector<Vertex>>(1));
  EXPECT_GT(gamma(iso, 0, 3), 3);
}

TEST(Baselines, KsvStyleDominates) {
  std::mt19937_64 rng(211);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gen::random_connected(35, 15, rng);
    for (const int k : {1, 2, 3}) {
      EXPECT_TRUE(solve::is_dominating_set(g, ksv_style(g, k)));
    }
  }
}

TEST(Baselines, KsvReasonableOnPlanar) {
  std::mt19937_64 rng(223);
  const Graph g = graph::gen::apollonian(40, rng);
  const auto solution = ksv_style(g, 3);
  EXPECT_TRUE(solve::is_dominating_set(g, solution));
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, ExactRatioOnSmallGraph) {
  const Graph g = graph::gen::cycle(9);  // MDS = 3
  const std::vector<Vertex> solution{0, 1, 3, 6};
  const auto report = measure_mds_ratio(g, solution);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.reference, 3);
  EXPECT_NEAR(report.ratio, 4.0 / 3.0, 1e-9);
}

TEST(Metrics, TreeUsesDp) {
  std::mt19937_64 rng(227);
  const Graph g = graph::gen::random_tree(300, rng);
  const auto solution = tree_degree_rule(g);
  const auto report = measure_mds_ratio(g, solution);
  EXPECT_TRUE(report.exact);
  EXPECT_LE(report.ratio, 3.0);
}

TEST(Metrics, MvcRatio) {
  const Graph g = graph::gen::cycle(8);  // MVC = 4
  const auto cover = theorem44_mvc(g);
  const auto report = measure_mvc_ratio(g, cover.solution);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.reference, 4);
}

}  // namespace
}  // namespace lmds::core
