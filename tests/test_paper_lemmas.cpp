// Property tests for the paper's quantitative lemmas, evaluated empirically
// on the certified instance families:
//   Lemma 3.2      — #(local 1-cuts) <= 3(d+1) · MDS(G)
//   Lemma 3.3      — #(interesting vertices) <= 22(d+1) · MDS(G)
//   Lemma 4.2      — residual components have bounded diameter
//   Lemma 5.16     — Ore: MDS <= n/2 without isolated vertices
//   Lemma 5.18     — |A| <= (t-1)|B| for bipartite-minor shapes
//   Corollary 5.20 — |D2(G)| <= (2t-1) · MDS(G)
// plus the Theorem 4.1/4.4 end-to-end ratio guarantees on parameterized
// family sweeps (TEST_P).

#include <gtest/gtest.h>

#include <random>

#include "core/algorithm1.hpp"
#include "core/constants.hpp"
#include "core/theorem44.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "ding/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "minor/k2t.hpp"
#include "solve/exact_mds.hpp"
#include "solve/tree_dp.hpp"
#include "solve/validate.hpp"
#include "support/global_cuts.hpp"

namespace lmds {
namespace {

using graph::Graph;
using graph::Vertex;

// The instance families the lemma sweeps run on. Every graph comes with the
// t for which it is K_{2,t}-minor-free (certified by construction).
struct Instance {
  Graph graph;
  int t;
  std::string label;
};

std::vector<Instance> lemma_instances() {
  std::vector<Instance> result;
  std::mt19937_64 rng(977);
  result.push_back({graph::gen::cycle(30), 3, "C30"});
  result.push_back({graph::gen::cycle(13), 3, "C13"});
  result.push_back({graph::gen::theta_chain(6, 3), 4, "theta_6_3"});
  result.push_back({graph::gen::theta_chain(4, 6), 7, "theta_4_6"});
  result.push_back({graph::gen::caterpillar(8, 2), 2, "caterpillar"});
  result.push_back({graph::gen::random_tree(40, rng), 2, "tree40"});
  result.push_back({graph::gen::random_maximal_outerplanar(20, rng), 3, "outerplanar20"});
  result.push_back({ding::fan(8), 3, "fan8"});
  result.push_back({ding::strip(7), 5, "strip7"});
  {
    ding::CactusConfig cfg;
    cfg.pieces = 6;
    cfg.max_piece_size = 8;
    cfg.t = 5;
    result.push_back({ding::random_cactus_of_structures(cfg, rng), 5, "cactus5"});
  }
  return result;
}

class LemmaSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Families, LemmaSweep, ::testing::Range(0, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return lemma_instances()[static_cast<std::size_t>(info.param)].label;
                         });

// ---------------------------------------------------------------------------
// Lemma 3.2: local 1-cuts are at most 3(d+1) MDS(G). K_{2,t}-minor-free
// classes have d = 1, so the bound is 6 MDS(G). The paper proves it at
// radius m3.2; local cuts are radius-monotone (more local cuts at smaller
// radii is possible only up to the global-cut limit at radius >= diameter),
// so we check the *global* count (radius = n) and a mid radius.

TEST_P(LemmaSweep, Lemma32GlobalOneCuts) {
  const Instance inst = lemma_instances()[static_cast<std::size_t>(GetParam())];
  const core::PaperConstants constants{.t = inst.t, .d = 1};
  const int mds = solve::mds_size(inst.graph);
  const int global = static_cast<int>(
      cuts::local_one_cuts(inst.graph, inst.graph.num_vertices()).size());
  EXPECT_LE(global, constants.c32() * mds) << inst.label;
}

TEST_P(LemmaSweep, Lemma32MidRadiusOneCuts) {
  const Instance inst = lemma_instances()[static_cast<std::size_t>(GetParam())];
  const core::PaperConstants constants{.t = inst.t, .d = 1};
  const int mds = solve::mds_size(inst.graph);
  // Radius 4 stands in for m3.2 (the paper constant exceeds every diameter
  // here); the charging argument is what the bound tests.
  const int count = static_cast<int>(cuts::local_one_cuts(inst.graph, 4).size());
  EXPECT_LE(count, constants.c32() * mds) << inst.label;
}

// ---------------------------------------------------------------------------
// Lemma 3.3: interesting vertices are at most 22(d+1) MDS(G) = 44 MDS(G).

TEST_P(LemmaSweep, Lemma33GlobalInteresting) {
  const Instance inst = lemma_instances()[static_cast<std::size_t>(GetParam())];
  const core::PaperConstants constants{.t = inst.t, .d = 1};
  const int mds = solve::mds_size(inst.graph);
  const int count = static_cast<int>(cuts::globally_interesting_vertices(inst.graph).size());
  EXPECT_LE(count, constants.c33() * mds) << inst.label;
}

TEST_P(LemmaSweep, Lemma33MidRadiusInteresting) {
  const Instance inst = lemma_instances()[static_cast<std::size_t>(GetParam())];
  const core::PaperConstants constants{.t = inst.t, .d = 1};
  const int mds = solve::mds_size(inst.graph);
  const int count = static_cast<int>(cuts::interesting_vertices(inst.graph, 4).size());
  EXPECT_LE(count, constants.c33() * mds) << inst.label;
}

// ---------------------------------------------------------------------------
// Theorem 4.1 / 4.4 end-to-end guarantees on the same sweep.

TEST_P(LemmaSweep, Algorithm1WithinDerivedRatio) {
  const Instance inst = lemma_instances()[static_cast<std::size_t>(GetParam())];
  core::Algorithm1Config cfg;
  cfg.t = inst.t;
  cfg.radius1 = 4;
  cfg.radius2 = 4;
  const auto result = core::algorithm1(inst.graph, cfg);
  ASSERT_TRUE(solve::is_dominating_set(inst.graph, result.solution)) << inst.label;
  const int mds = solve::mds_size(inst.graph);
  const core::PaperConstants constants{.t = inst.t, .d = 1};
  EXPECT_LE(static_cast<int>(result.solution.size()), constants.derived_ratio() * mds)
      << inst.label;
}

TEST_P(LemmaSweep, Theorem44WithinRatio) {
  const Instance inst = lemma_instances()[static_cast<std::size_t>(GetParam())];
  const auto result = core::theorem44_mds(inst.graph);
  ASSERT_TRUE(solve::is_dominating_set(inst.graph, result.solution)) << inst.label;
  const int mds = solve::mds_size(inst.graph);
  const core::PaperConstants constants{.t = inst.t, .d = 1};
  EXPECT_LE(static_cast<int>(result.solution.size()), constants.theorem44_mds_ratio() * mds)
      << inst.label;
}

// ---------------------------------------------------------------------------
// Lemma 4.2: residual components have bounded diameter. On instances with
// long strips, the residual diameter must stay far below the strip length.

TEST(Lemma42, LongStripsResidualBounded) {
  // A path base with two long strips: strip interiors survive steps 1-2 but
  // split into bounded-diameter pieces.
  std::mt19937_64 rng(983);
  ding::AugmentationConfig cfg;
  cfg.base_vertices = 16;
  cfg.fans = 1;
  cfg.strips = 2;
  cfg.min_length = 12;
  cfg.max_length = 16;
  const auto aug = ding::random_augmentation(cfg, rng);
  core::Algorithm1Config acfg;
  acfg.t = 6;
  acfg.radius1 = 3;
  acfg.radius2 = 3;
  const auto result = core::algorithm1(aug.graph, acfg);
  EXPECT_TRUE(solve::is_dominating_set(aug.graph, result.solution));
  // The residual diameter stays bounded by a small multiple of the radii,
  // never the strip length (Lemma 4.2's content).
  EXPECT_LE(result.diag.max_residual_diameter, 12);
}

TEST(Lemma42, CactusResidualBounded) {
  std::mt19937_64 rng(991);
  ding::CactusConfig cfg;
  cfg.pieces = 10;
  cfg.max_piece_size = 14;
  cfg.t = 5;
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = ding::random_cactus_of_structures(cfg, rng);
    core::Algorithm1Config acfg;
    acfg.t = 5;
    acfg.radius1 = 3;
    acfg.radius2 = 3;
    const auto result = core::algorithm1(g, acfg);
    EXPECT_LE(result.diag.max_residual_diameter, 14) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// Lemma 5.16 (Ore).

TEST(Lemma516, OreBound) {
  std::mt19937_64 rng(997);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::gen::random_connected(24, 10, rng);
    EXPECT_LE(2 * solve::mds_size(g), g.num_vertices());
  }
}

TEST(Lemma516, TightOnK2Unions) {
  // Disjoint edges: MDS = n/2 exactly.
  Graph g = graph::disjoint_union(graph::gen::path(2), graph::gen::path(2));
  g = graph::disjoint_union(g, graph::gen::path(2));
  EXPECT_EQ(solve::mds_size(g), 3);
}

// ---------------------------------------------------------------------------
// Lemma 5.18: in a K_{2,t}-minor-free graph split as A ⊔ B with A edgeless
// and deg(a) >= 2 for all a in A, |A| <= (t-1)|B|.

TEST(Lemma518, RandomBipartiteMinorShapes) {
  std::mt19937_64 rng(1009);
  for (int trial = 0; trial < 10; ++trial) {
    // B: a random connected "core"; A: vertices attached to >= 2 core
    // vertices, added only while the graph stays K_{2,4}-minor-free.
    const int b_size = 8;
    Graph core_graph = graph::gen::random_connected(b_size, 4, rng);
    graph::GraphBuilder builder(b_size);
    for (const graph::Edge e : core_graph.edges()) builder.add_edge(e.u, e.v);
    std::uniform_int_distribution<Vertex> pick(0, b_size - 1);
    const int t = 4;
    int a_size = 0;
    for (int attempt = 0; attempt < 40; ++attempt) {
      const Vertex x = pick(rng);
      const Vertex y = pick(rng);
      if (x == y) continue;
      graph::GraphBuilder trial_builder = builder;
      const Vertex fresh = static_cast<Vertex>(b_size + a_size);
      trial_builder.add_edge(fresh, x);
      trial_builder.add_edge(fresh, y);
      const Graph candidate = trial_builder.build();
      if (minor::is_k2t_minor_free(candidate, t, 2)) {
        builder = trial_builder;
        ++a_size;
      }
    }
    EXPECT_LE(a_size, (t - 1) * b_size);
  }
}

TEST(Lemma518, TightOnThetaBundle) {
  // K_{2,t-1} itself: A = the t-1 middle vertices, B = the two hubs.
  // |A| = t-1 <= (t-1)*2 with room; the extremal examples chain bundles.
  const int t = 5;
  const Graph g = graph::gen::theta_chain(3, t - 1);
  ASSERT_TRUE(minor::is_k2t_minor_free(g, t));
  const int a = 3 * (t - 1);  // internals (edgeless, degree 2)
  const int b = 4;            // hubs
  EXPECT_LE(a, (t - 1) * b);
}

// ---------------------------------------------------------------------------
// Corollary 5.20: |D2(G)| <= (2t-1) MDS(G) on twin-less K_{2,t}-minor-free
// graphs — the engine of Theorem 4.4, checked directly through the D2 rule.

TEST(Corollary520, ThetaChainsNearTight) {
  for (const int parallel : {2, 4, 6}) {
    const int t = parallel + 1;
    const Graph g = graph::gen::theta_chain(8, parallel);
    const auto d2 = core::theorem44_mds(g);
    const int mds = solve::mds_size(g);
    EXPECT_LE(static_cast<int>(d2.solution.size()), (2 * t - 1) * mds) << "t=" << t;
    // Near-tightness: the rule really does pay Θ(t) here.
    EXPECT_GE(static_cast<int>(d2.solution.size()), (t - 1) * mds / 2) << "t=" << t;
  }
}

TEST(Corollary520, CertifiedCactuses) {
  std::mt19937_64 rng(1013);
  ding::CactusConfig cfg;
  cfg.pieces = 7;
  cfg.t = 6;
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = ding::random_cactus_of_structures(cfg, rng);
    const auto d2 = core::theorem44_mds(g);
    const int mds = solve::mds_size(g);
    EXPECT_LE(static_cast<int>(d2.solution.size()), (2 * cfg.t - 1) * mds) << g.summary();
  }
}

}  // namespace
}  // namespace lmds
