// Hot-path differential suite: the CSR-native view extraction, the local
// cut kernel, the two server baselines (greedy, KSV's gamma test), the exact
// set cover's greedy bound, closed-neighbourhood containment, Theorem 4.4's
// MDS rule and the intra-graph threading mode must be BIT-IDENTICAL to the
// seed implementations they replaced. The seed code survives in
// local::detail::{gather_views_reference, cut_view_reference}
// (tests/support/view_reference.hpp), cuts::detail::*_reference
// (tests/support/cut_reference.hpp), the *_reference baselines and set cover
// (tests/support/baseline_reference.hpp) and the containment and rule
// references (tests/support/rule_reference.hpp) precisely so this file can hold it
// against the rewrite on every generator, every radius, and adversarial
// (shuffled) id assignments; the executor half
// asserts every registered solver returns the same Response for every
// intra_threads value, composed with cross-graph sharding and both
// transports' batch-override decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "core/baselines.hpp"
#include "core/constants.hpp"
#include "core/theorem44.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "ding/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "local/simulator.hpp"
#include "local/view.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
#include "solve/exact_mds.hpp"
#include "solve/greedy.hpp"
#include "support/baseline_reference.hpp"
#include "support/cut_reference.hpp"
#include "support/global_cuts.hpp"
#include "support/rule_reference.hpp"
#include "support/view_reference.hpp"

namespace lmds {
namespace {

using graph::Graph;
using graph::Vertex;

// Same instances as tests/test_api.cpp — both generator families, small
// enough that the O(n·m)-per-vertex reference gather stays fast.
std::vector<Graph> generator_suite() {
  std::mt19937_64 rng(20250727);
  std::vector<Graph> gs;
  gs.push_back(graph::gen::path(12));
  gs.push_back(graph::gen::cycle(9));
  gs.push_back(graph::gen::star(7));
  gs.push_back(graph::gen::grid(4, 5));
  gs.push_back(graph::gen::spider(4, 3));
  gs.push_back(graph::gen::theta_chain(4, 4));
  gs.push_back(graph::gen::caterpillar(8, 2));
  gs.push_back(graph::gen::random_tree(30, rng));
  ding::CactusConfig cc;
  cc.pieces = 6;
  cc.t = 5;
  gs.push_back(ding::random_cactus_of_structures(cc, rng));
  return gs;
}

void expect_views_equal(const local::BallView& got, const local::BallView& want,
                        const std::string& where) {
  EXPECT_EQ(got.graph, want.graph) << where;
  EXPECT_EQ(got.ids, want.ids) << where;
  EXPECT_EQ(got.dist, want.dist) << where;
  EXPECT_EQ(got.centre, want.centre) << where;
  EXPECT_EQ(got.radius, want.radius) << where;
}

// ---------------------------------------------------------------------------
// View extraction vs the seed implementations

TEST(HotPath, GatherViewsMatchesReferenceBitForBit) {
  std::mt19937_64 rng(7);
  for (const Graph& g : generator_suite()) {
    // Shuffled ids: the monotone-relabelling argument must not silently
    // depend on ids following the vertex order.
    const local::Network net = local::Network::with_random_ids(g, rng);
    for (int radius : {0, 1, 2, 3}) {
      local::TrafficStats fast_stats;
      local::TrafficStats ref_stats;
      const auto fast = local::gather_views(net, radius, &fast_stats);
      const auto ref = local::detail::gather_views_reference(net, radius, &ref_stats);
      ASSERT_EQ(fast.size(), ref.size());
      EXPECT_EQ(fast_stats, ref_stats) << "r=" << radius;
      for (std::size_t v = 0; v < fast.size(); ++v) {
        expect_views_equal(fast[v], ref[v],
                           "n=" + std::to_string(g.num_vertices()) +
                               " r=" + std::to_string(radius) + " v=" + std::to_string(v));
      }
    }
  }
}

TEST(HotPath, CutViewMatchesReferenceBitForBit) {
  std::mt19937_64 rng(11);
  for (const Graph& g : generator_suite()) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    for (int radius : {0, 1, 2, 4}) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        expect_views_equal(local::cut_view(net, v, radius),
                           local::detail::cut_view_reference(net, v, radius),
                           "r=" + std::to_string(radius) + " v=" + std::to_string(v));
      }
    }
  }
}

TEST(HotPath, ParallelGatherIsBitIdenticalToSequential) {
  std::mt19937_64 rng(13);
  for (const Graph& g : generator_suite()) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    local::TrafficStats seq_stats;
    local::TrafficStats par_stats;
    const auto seq = local::gather_views(net, 2, &seq_stats, /*threads=*/1);
    const auto par = local::gather_views(net, 2, &par_stats, /*threads=*/4);
    ASSERT_EQ(seq.size(), par.size());
    EXPECT_EQ(seq_stats, par_stats);
    for (std::size_t v = 0; v < seq.size(); ++v) {
      expect_views_equal(par[v], seq[v], "v=" + std::to_string(v));
    }
    const auto cut_seq = local::cut_views(net, 2, /*threads=*/1);
    const auto cut_par = local::cut_views(net, 2, /*threads=*/3);
    ASSERT_EQ(cut_seq.size(), cut_par.size());
    for (std::size_t v = 0; v < cut_seq.size(); ++v) {
      expect_views_equal(cut_par[v], cut_seq[v], "cut v=" + std::to_string(v));
    }
  }
}

TEST(HotPath, ScratchReuseAcrossGraphSizesIsClean) {
  // One scratch serving graphs of shrinking then growing size: the
  // epoch-stamp invalidation must never leak a previous extraction's marks.
  local::ViewScratch scratch;
  std::mt19937_64 rng(17);
  const std::vector<Graph> gs = {graph::gen::grid(6, 6), graph::gen::path(3),
                                 graph::gen::cycle(40), graph::gen::star(5)};
  for (const Graph& g : gs) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      expect_views_equal(local::cut_view_into(net, v, 2, scratch),
                         local::detail::cut_view_reference(net, v, 2),
                         "n=" + std::to_string(g.num_vertices()) + " v=" + std::to_string(v));
    }
  }
}

// ---------------------------------------------------------------------------
// Local cut kernel: every r-local cut predicate against its seed version
// (cuts::detail::*_reference, tests/support/cut_reference.hpp)

// The families Algorithm 1 meets, small enough for the seed predicates'
// whole-graph BFS per pair, plus each twin-reduced graph the MDS variant
// feeds steps 1-2 when the reduction removes something.
std::vector<Graph> cut_suite() {
  std::mt19937_64 rng(20251018);
  std::vector<Graph> gs;
  gs.push_back(graph::gen::random_tree(24, rng));
  gs.push_back(graph::gen::random_maximal_outerplanar(22, rng));
  gs.push_back(graph::gen::random_maximal_outerplanar(30, rng));
  gs.push_back(graph::gen::theta_chain(4, 3));
  gs.push_back(graph::gen::theta_chain(3, 2));
  ding::CactusConfig cc;
  cc.pieces = 4;
  cc.max_piece_size = 8;
  gs.push_back(ding::random_cactus_of_structures(cc, rng));
  gs.push_back(graph::gen::apollonian(16, rng));
  gs.push_back(graph::gen::cycle(17));
  gs.push_back(graph::gen::grid(2, 10));  // a ladder
  gs.push_back(graph::gen::clique_with_pendants(5));
  // Squares of trees: sibling leaves become true twins, so the reduction
  // has work to do.
  gs.push_back(graph::power(graph::gen::random_tree(24, rng), 2));
  gs.push_back(graph::power(graph::gen::caterpillar(6, 2), 2));
  // Disconnected, with two isolated vertices.
  const Graph lone = graph::gen::path(1);
  gs.push_back(graph::disjoint_union(
      graph::disjoint_union(graph::gen::cycle(6), lone),
      graph::disjoint_union(graph::gen::theta_chain(2, 2), lone)));
  const std::size_t inputs = gs.size();
  for (std::size_t i = 0; i < inputs; ++i) {
    graph::TwinReduction reduction = graph::remove_true_twins(gs[i]);
    if (reduction.num_classes < gs[i].num_vertices()) {
      gs.push_back(std::move(reduction.reduced.graph));
    }
  }
  return gs;
}

TEST(LocalCutKernel, EveryPredicateEqualsTheSeedOracle) {
  namespace ref = cuts::detail;
  for (const Graph& g : cut_suite()) {
    const Vertex n = g.num_vertices();
    for (int r = 1; r <= 6; ++r) {
      const std::string where = g.summary() + " r=" + std::to_string(r);
      EXPECT_EQ(cuts::local_one_cuts(g, r), ref::local_one_cuts_reference(g, r)) << where;
      EXPECT_EQ(cuts::local_two_cuts(g, r), ref::local_two_cuts_reference(g, r)) << where;
      EXPECT_EQ(cuts::vertices_in_local_two_cuts(g, r),
                ref::vertices_in_local_two_cuts_reference(g, r))
          << where;
      EXPECT_EQ(cuts::interesting_vertices(g, r), ref::interesting_vertices_reference(g, r))
          << where;
      for (Vertex v = 0; v < n; ++v) {
        const std::string at = where + " v=" + std::to_string(v);
        ASSERT_EQ(cuts::is_local_one_cut(g, v, r), ref::is_local_one_cut_reference(g, v, r)) << at;
        ASSERT_EQ(cuts::is_interesting(g, v, r), ref::is_interesting_reference(g, v, r)) << at;
        ASSERT_EQ(cuts::in_local_two_cut(g, v, r), ref::in_local_two_cut_reference(g, v, r)) << at;
        for (Vertex u = 0; u < n; ++u) {
          ASSERT_EQ(cuts::is_local_two_cut(g, u, v, r), ref::is_local_two_cut_reference(g, u, v, r))
              << at << " u=" << u;
          ASSERT_EQ(cuts::certifies_interesting(g, v, u, r),
                    ref::certifies_interesting_reference(g, v, u, r))
              << at << " u=" << u;
        }
      }
    }
  }
}

TEST(LocalCutKernel, RadiusAndVertexEdgeCases) {
  namespace ref = cuts::detail;
  const Graph g = graph::gen::theta_chain(3, 3);
  const Vertex n = g.num_vertices();
  for (const int r : {0, -1}) {
    // r < 1: nothing is interesting, and the cut functions refuse.
    EXPECT_TRUE(cuts::interesting_vertices(g, r).empty());
    EXPECT_TRUE(ref::interesting_vertices_reference(g, r).empty());
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_FALSE(cuts::is_interesting(g, v, r));
      EXPECT_FALSE(ref::is_interesting_reference(g, v, r));
      EXPECT_FALSE(cuts::certifies_interesting(g, v, (v + 1) % n, r));
      EXPECT_FALSE(ref::certifies_interesting_reference(g, v, (v + 1) % n, r));
    }
    EXPECT_THROW((void)cuts::is_local_one_cut(g, 0, r), std::invalid_argument);
    EXPECT_THROW((void)cuts::local_one_cuts(g, r), std::invalid_argument);
    EXPECT_THROW((void)cuts::is_local_two_cut(g, 0, 1, r), std::invalid_argument);
    EXPECT_THROW((void)cuts::local_two_cuts(g, r), std::invalid_argument);
    EXPECT_THROW((void)cuts::vertices_in_local_two_cuts(g, r), std::invalid_argument);
    EXPECT_THROW((void)ref::is_local_one_cut_reference(g, 0, r), std::invalid_argument);
    EXPECT_THROW((void)ref::local_one_cuts_reference(g, r), std::invalid_argument);
    EXPECT_THROW((void)ref::is_local_two_cut_reference(g, 0, 1, r), std::invalid_argument);
    EXPECT_THROW((void)ref::local_two_cuts_reference(g, r), std::invalid_argument);
    EXPECT_THROW((void)ref::vertices_in_local_two_cuts_reference(g, r), std::invalid_argument);
    // in_local_two_cut refuses r < 1 like the whole-graph MVC functions. The
    // seed version reached its 2-cut test only through a partner in N^r[v]:
    // at r = 0 it answered false, at r < 0 it threw.
    EXPECT_THROW((void)cuts::in_local_two_cut(g, 0, r), std::invalid_argument);
  }
  EXPECT_FALSE(ref::in_local_two_cut_reference(g, 0, 0));
  EXPECT_THROW((void)ref::in_local_two_cut_reference(g, 0, -1), std::invalid_argument);

  for (const Vertex bad : {Vertex{-1}, n}) {
    EXPECT_THROW((void)cuts::is_local_one_cut(g, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)cuts::is_local_two_cut(g, 0, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)cuts::is_local_two_cut(g, bad, 0, 2), std::invalid_argument);
    EXPECT_THROW((void)cuts::in_local_two_cut(g, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)cuts::is_interesting(g, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)cuts::certifies_interesting(g, 0, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)cuts::certifies_interesting(g, bad, 0, 2), std::invalid_argument);
    EXPECT_THROW((void)ref::is_local_one_cut_reference(g, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)ref::is_local_two_cut_reference(g, 0, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)ref::in_local_two_cut_reference(g, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)ref::is_interesting_reference(g, bad, 2), std::invalid_argument);
    EXPECT_THROW((void)ref::certifies_interesting_reference(g, 0, bad, 2), std::invalid_argument);
  }
  // u == v answers false before any vertex check, as it did.
  EXPECT_FALSE(cuts::is_local_two_cut(g, n, n, 2));
  EXPECT_FALSE(ref::is_local_two_cut_reference(g, n, n, 2));
}

TEST(LocalCutKernel, ScratchReuseAcrossGraphSizesIsClean) {
  // One kernel serving graphs that grow, then shrink: the epoch stamps of
  // its two arenas must never leak a previous graph's marks or labels.
  namespace ref = cuts::detail;
  cuts::LocalCutKernel kernel;
  const std::vector<Graph> gs = {graph::gen::cycle(8), graph::gen::random_maximal_outerplanar(40, 3),
                                 graph::gen::theta_chain(5, 2), graph::gen::path(4),
                                 graph::gen::grid(2, 6)};
  for (const Graph& g : gs) {
    for (const int r : {1, 3}) {
      const std::string where = g.summary() + " r=" + std::to_string(r);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(kernel.is_one_cut(g, v, r), ref::is_local_one_cut_reference(g, v, r)) << where;
        for (Vertex u = 0; u < g.num_vertices(); ++u) {
          const int d = graph::distance(g, u, v);
          EXPECT_EQ(kernel.within(g, u, v, r), d >= 0 && d <= r) << where;
        }
        for (const Vertex u : graph::ball(g, v, r)) {
          if (u == v) continue;
          const cuts::PairCut cut = kernel.pair(g, u, v, r);
          EXPECT_EQ(cut.minimal, ref::is_local_two_cut_reference(g, u, v, r)) << where;
          EXPECT_EQ(cut.minimal && cut.spread_u && !g.closed_neighborhood_contained(v, u),
                    ref::certifies_interesting_reference(g, v, u, r))
              << where;
          EXPECT_EQ(cut.minimal && cut.spread_v && !g.closed_neighborhood_contained(u, v),
                    ref::certifies_interesting_reference(g, u, v, r))
              << where;
        }
      }
    }
  }
}

// The pair filter's test set, part one: the five soak families at sizes
// 4–150, and disconnected family graphs with an isolated vertex.
std::vector<Graph> filter_family_suite() {
  std::vector<Graph> gs;
  for (const int n : {4, 6, 9, 14, 22, 35, 55, 90, 150}) {
    const auto seed = static_cast<std::uint64_t>(n);
    gs.push_back(graph::gen::random_tree(n, seed));
    gs.push_back(graph::gen::random_maximal_outerplanar(n, seed));
    const int parallel = 2 + n % 3;
    gs.push_back(graph::gen::theta_chain(std::max(1, (n - 1) / (parallel + 1)), parallel));
    ding::CactusConfig cc;
    cc.pieces = std::max(1, n / 6);
    cc.max_piece_size = 8;
    gs.push_back(ding::random_cactus_of_structures(cc, seed));
    gs.push_back(graph::gen::apollonian(n, seed));
  }
  const Graph lone = graph::gen::path(1);
  gs.push_back(graph::disjoint_union(
      graph::disjoint_union(graph::gen::theta_chain(5, 2), lone),
      graph::gen::random_maximal_outerplanar(12, 7)));
  gs.push_back(graph::disjoint_union(graph::gen::cycle(7), graph::gen::grid(3, 4)));
  return gs;
}

// Part two: 1000 seeded random graphs of 1–40 vertices. A quarter are
// dense (as many extra edges as vertices) and a quarter disconnected, so
// most are not minor-free.
std::vector<Graph> filter_random_suite() {
  std::vector<Graph> gs;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const int n = 1 + static_cast<int>(seed % 40);
    if (seed % 4 == 0) {
      gs.push_back(graph::gen::random_connected(n, n / 4, seed));
    } else if (seed % 4 == 1) {
      gs.push_back(graph::gen::random_connected(n, n, seed));
    } else if (seed % 4 == 2) {
      gs.push_back(graph::gen::random_max_degree(n, 3 + static_cast<int>(seed % 3), n / 2, seed));
    } else {
      gs.push_back(graph::disjoint_union(graph::gen::random_connected(n / 2 + 1, n / 3, seed),
                                         graph::gen::random_connected((n + 1) / 2, n / 3, ~seed)));
    }
  }
  return gs;
}

// Radii 1–12 and the paper radii m3.2, m3.3 for t = 2..5, each clamped to
// the largest eccentricity inside a component (a larger radius gives the
// same balls), ascending and distinct.
std::vector<int> filter_radii(const Graph& g) {
  int reach = 1;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const int d : graph::bfs_distances(g, v)) reach = std::max(reach, d);
  }
  std::vector<int> radii;
  for (int r = 1; r <= 12; ++r) radii.push_back(std::min(r, reach));
  for (int t = 2; t <= 5; ++t) {
    radii.push_back(std::min(core::PaperConstants{t}.m32(), reach));
    radii.push_back(std::min(core::PaperConstants{t}.m33(), reach));
  }
  std::sort(radii.begin(), radii.end());
  radii.erase(std::unique(radii.begin(), radii.end()), radii.end());
  return radii;
}

// G[N(u) − skip] has two vertices that no path inside it joins.
bool link_disconnected(const Graph& g, Vertex u, Vertex skip) {
  std::vector<Vertex> link;
  for (const Vertex w : g.neighbors(u)) {
    if (w != skip) link.push_back(w);
  }
  return graph::connected_components(graph::induced_subgraph(g, link).graph).count >= 2;
}

// Every pair at distance <= r of the whole test set, at every radius: the
// filter keeps each pair the kernel calls minimal, and its partners are
// exactly the ball members that share a block. The block and link tests are
// also held to their definitions (block_cut_tree's blocks, and the
// connectivity of an induced link).
TEST(PairFilter, NeverRejectsAMinimalPair) {
  cuts::LocalCutKernel kernel;
  std::size_t pairs = 0;
  std::size_t minimal = 0;
  std::size_t kept = 0;
  std::vector<Graph> gs = filter_family_suite();
  for (Graph& g : filter_random_suite()) gs.push_back(std::move(g));
  for (const Graph& g : gs) {
    const Vertex n = g.num_vertices();
    cuts::PairFilter filter(g);
    const cuts::BlockCutTree bct = cuts::block_cut_tree(g);
    for (Vertex v = 0; v < n; ++v) {
      for (Vertex u = 0; u < n; ++u) {
        if (u == v) continue;
        bool share = false;
        for (const auto& block : bct.blocks) {
          share = share || (block.size() >= 3 &&
                            std::binary_search(block.begin(), block.end(), u) &&
                            std::binary_search(block.begin(), block.end(), v));
        }
        ASSERT_EQ(filter.share_block(u, v), share) << g.summary() << " u=" << u << " v=" << v;
        ASSERT_EQ(filter.links_split(u, v), link_disconnected(g, u, v) && link_disconnected(g, v, u))
            << g.summary() << " u=" << u << " v=" << v;
      }
    }
    for (const int r : filter_radii(g)) {
      for (Vertex v = 0; v < n; ++v) {
        const std::string at = g.summary() + " r=" + std::to_string(r) + " v=" + std::to_string(v);
        const std::vector<Vertex> ball = graph::ball(g, v, r);
        std::vector<Vertex> sharing;
        for (const Vertex u : ball) {
          if (u != v && filter.share_block(u, v)) sharing.push_back(u);
        }
        ASSERT_EQ(filter.partners(v, r), sharing) << at;
        for (const Vertex u : ball) {
          if (u <= v) continue;
          ++pairs;
          const bool pass = filter.share_block(u, v) && filter.links_split(u, v);
          kept += pass ? 1 : 0;
          if (!kernel.pair(g, u, v, r).minimal) continue;
          ++minimal;
          ASSERT_TRUE(pass) << at << " u=" << u;
        }
      }
    }
  }
  // The set holds minimal pairs, and pairs the filter rejects.
  EXPECT_GT(minimal, 0u);
  EXPECT_LT(kept, pairs);
  std::printf("pair filter: %zu pairs at distance <= r, %zu kept, %zu minimal\n", pairs, kept,
              minimal);
}

// The filtered whole-graph functions, and the per-view rules on the views
// Algorithm 1's LOCAL run gathers for radius1 = radius2 = r (each filter
// built from its view), against the seed oracles. The soak families run at
// every radius of filter_radii; the seed oracles cost O(n) per pair, so the
// 1000 random graphs run at r = 1, 2 and their largest radius (the pair
// test above takes them at every radius).
TEST(PairFilter, FilteredCutsEqualTheSeedOracle) {
  namespace ref = cuts::detail;
  const auto check = [](const Graph& g, int r) {
    const std::string where = g.summary() + " r=" + std::to_string(r);
    const std::vector<Vertex> ones = ref::local_one_cuts_reference(g, r);
    const std::vector<cuts::VertexPair> pairs = ref::local_two_cuts_reference(g, r);
    // vertices_in_local_two_cuts_reference lists the ends of these pairs, and
    // certifies_interesting_reference is false off them, so both sets read
    // from the pairs rather than rerunning the oracle.
    std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
    std::vector<char> picked(in.size(), 0);
    for (const cuts::VertexPair p : pairs) {
      const auto u = static_cast<std::size_t>(p.u);
      const auto v = static_cast<std::size_t>(p.v);
      in[u] = in[v] = 1;
      picked[u] = picked[u] || ref::certifies_interesting_reference(g, p.u, p.v, r);
      picked[v] = picked[v] || ref::certifies_interesting_reference(g, p.v, p.u, r);
    }
    ASSERT_EQ(cuts::local_one_cuts(g, r), ones) << where;
    ASSERT_EQ(cuts::local_two_cuts(g, r), pairs) << where;
    const std::vector<Vertex> in_cuts = cuts::vertices_in_local_two_cuts(g, r);
    const std::vector<Vertex> interesting = cuts::interesting_vertices(g, r);
    const local::Network net(g);
    const int radius = std::min(2 * r, g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto at = static_cast<std::size_t>(v);
      ASSERT_EQ(std::binary_search(in_cuts.begin(), in_cuts.end(), v), in[at] != 0) << where;
      ASSERT_EQ(std::binary_search(interesting.begin(), interesting.end(), v), picked[at] != 0)
          << where;
      const local::BallView view = local::cut_view(net, v, radius);
      const int rule_r = std::min(r, radius);
      const bool one = std::binary_search(ones.begin(), ones.end(), v);
      ASSERT_EQ(cuts::is_local_one_cut(view.graph, view.centre, rule_r), one) << where << " v=" << v;
      ASSERT_EQ(cuts::in_local_two_cut(view.graph, view.centre, rule_r), in[at] != 0)
          << where << " v=" << v;
      ASSERT_EQ(cuts::is_interesting(view.graph, view.centre, rule_r), picked[at] != 0)
          << where << " v=" << v;
    }
  };
  for (const Graph& g : filter_family_suite()) {
    const std::vector<int> radii = filter_radii(g);
    for (const int r : radii) {
      if (g.num_vertices() <= 90 || r <= 4 || r == radii.back()) check(g, r);
    }
  }
  for (const Graph& g : filter_random_suite()) {
    const std::vector<int> radii = filter_radii(g);
    for (const int r : radii) {
      if (r <= 2 || r == radii.back()) check(g, r);
    }
  }
}

// ---------------------------------------------------------------------------
// Baselines: the lazy-heap greedy and the ball-local gamma test against the
// seed code (solve::detail / core::detail *_reference,
// tests/support/baseline_reference.hpp)

// The five soak families at several sizes, grids, and the shapes where the
// empty cases and the tie-breaks live.
std::vector<Graph> baseline_suite() {
  std::mt19937_64 rng(20261018);
  std::vector<Graph> gs;
  for (const int n : {4, 9, 24, 60, 150}) {
    gs.push_back(graph::gen::random_tree(n, rng));
    gs.push_back(graph::gen::random_maximal_outerplanar(n, rng));
    gs.push_back(graph::gen::apollonian(n, rng));
  }
  for (const int links : {1, 3, 8}) {
    for (const int parallel : {2, 4}) gs.push_back(graph::gen::theta_chain(links, parallel));
  }
  for (const int pieces : {2, 6, 14}) {
    ding::CactusConfig cc;
    cc.pieces = pieces;
    cc.max_piece_size = 8;
    gs.push_back(ding::random_cactus_of_structures(cc, rng));
  }
  gs.push_back(graph::gen::grid(1, 7));
  gs.push_back(graph::gen::grid(5, 5));
  gs.push_back(graph::gen::grid(12, 17));
  gs.push_back(Graph());
  // Isolated vertices and K2 components, alone and next to a cycle.
  const Graph lone = graph::gen::path(1);
  const Graph k2 = graph::gen::path(2);
  gs.push_back(lone);
  gs.push_back(k2);
  gs.push_back(graph::disjoint_union(graph::disjoint_union(lone, k2),
                                     graph::disjoint_union(graph::gen::cycle(5),
                                                           graph::disjoint_union(k2, lone))));
  return gs;
}

// A seeded random graph of up to 40 vertices, any density, isolated
// vertices allowed.
Graph random_small_graph(std::mt19937_64& rng) {
  const int n = static_cast<int>(rng() % 41);
  const double p = static_cast<double>(rng() % 1000) / 1000.0 * 0.5;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  graph::GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (coin(rng) < p) b.add_edge(u, v);
    }
  }
  return b.build();
}

// Vertices with more than 64 neighbours: a star and a wheel whose hubs need
// more covers than any small cap, K_{2,70} whose hubs have gamma 2, and K_66
// where every vertex has gamma 1.
std::vector<Graph> hub_suite() {
  return {graph::gen::star(90), graph::gen::wheel(80), graph::gen::complete_bipartite(2, 70),
          graph::gen::complete(66),
          graph::disjoint_union(graph::gen::complete_bipartite(3, 67), graph::gen::path(1))};
}

TEST(BaselineOracle, GreedyEqualsTheSeed) {
  namespace ref = solve::detail;
  for (const Graph& g : baseline_suite()) {
    EXPECT_EQ(solve::greedy_mds(g), ref::greedy_mds_reference(g)) << g.summary();
  }
  for (const Graph& g : hub_suite()) {
    EXPECT_EQ(solve::greedy_mds(g), ref::greedy_mds_reference(g)) << g.summary();
  }
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 1000; ++i) {
    const Graph g = random_small_graph(rng);
    ASSERT_EQ(solve::greedy_mds(g), ref::greedy_mds_reference(g)) << "random graph " << i;
  }
}

TEST(BaselineOracle, GammaEqualsTheSeedAtEveryVertex) {
  namespace ref = core::detail;
  std::vector<Graph> gs = baseline_suite();
  for (Graph& g : hub_suite()) gs.push_back(std::move(g));
  std::mt19937_64 rng(777);
  for (int i = 0; i < 200; ++i) gs.push_back(random_small_graph(rng));
  core::GammaWorkspace workspace;
  for (const Graph& g : gs) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      for (int cap = 0; cap <= 5; ++cap) {
        const int want = ref::gamma_reference(g, v, cap);
        ASSERT_EQ(workspace.gamma(g, v, cap), want)
            << g.summary() << " v=" << v << " cap=" << cap;
        ASSERT_EQ(core::gamma(g, v, cap), want) << g.summary() << " v=" << v << " cap=" << cap;
      }
    }
  }
  // Uncapped: every exact value, up to the degree bound.
  for (const Graph& g : hub_suite()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const int cap = g.num_vertices();
      EXPECT_EQ(workspace.gamma(g, v, cap), ref::gamma_reference(g, v, cap))
          << g.summary() << " v=" << v;
    }
  }
  EXPECT_THROW((void)core::gamma(graph::gen::path(3), 3, 2), std::invalid_argument);
  EXPECT_THROW((void)core::gamma(graph::gen::path(3), -1, 2), std::invalid_argument);
  // An isolated vertex answers cap + 1, which INT_MAX cannot hold.
  constexpr int kUncapped = std::numeric_limits<int>::max();
  EXPECT_THROW((void)core::gamma(graph::gen::path(1), 0, kUncapped), std::invalid_argument);
  EXPECT_THROW((void)workspace.gamma(graph::gen::path(1), 0, kUncapped), std::invalid_argument);
  EXPECT_THROW((void)core::ksv_style(graph::gen::path(1), kUncapped), std::invalid_argument);
}

TEST(BaselineOracle, KsvEqualsTheSeedAtEveryThreadCount) {
  namespace ref = core::detail;
  std::vector<Graph> gs = baseline_suite();
  for (Graph& g : hub_suite()) gs.push_back(std::move(g));
  std::mt19937_64 rng(99);
  for (int i = 0; i < 100; ++i) gs.push_back(random_small_graph(rng));
  for (const Graph& g : gs) {
    for (const int k : {0, 1, 2, 3, 5}) {
      const auto want = ref::ksv_style_reference(g, k);
      for (const int threads : {1, 2, 4}) {
        ASSERT_EQ(core::ksv_style(g, k, threads), want)
            << g.summary() << " k=" << k << " threads=" << threads;
      }
    }
  }
}

TEST(BaselineOracle, GammaWorkspaceReuseAcrossGraphSizesIsClean) {
  // One workspace on a large graph, then a small one, then the large one
  // again: neither its slot stamps nor its search buffers may leak.
  namespace ref = core::detail;
  const Graph large = graph::disjoint_union(graph::gen::random_maximal_outerplanar(400, 5),
                                            graph::gen::complete_bipartite(2, 70));
  const Graph small = graph::gen::theta_chain(2, 3);
  core::GammaWorkspace workspace;
  for (const Graph* g : {&large, &small, &large}) {
    for (Vertex v = 0; v < g->num_vertices(); ++v) {
      for (const int cap : {1, 3, 5}) {
        ASSERT_EQ(workspace.gamma(*g, v, cap), ref::gamma_reference(*g, v, cap))
            << g->summary() << " v=" << v << " cap=" << cap;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Closed-neighbourhood containment and Theorem 4.4's rule against the seed
// code (graph::detail / core::detail *_reference,
// tests/support/rule_reference.hpp), and every registered decide against
// its solver's full answer

// K_n minus the edge {0, 1}: N[0] and N[1] are each N[2] minus one vertex,
// and 2..n-1 are pairwise true twins.
Graph complete_minus_edge(int n) {
  graph::GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (u != 0 || v != 1) b.add_edge(u, v);
    }
  }
  return b.build();
}

// The baseline suite (the five soak families at sizes 4-150, grids, isolated
// vertices and K2s) plus the shapes where containment and twins live: K_n
// and K_n minus one edge, stars with more than 64 leaves, several disjoint
// K2s next to isolated vertices, and squares of trees, whose sibling leaves
// are true twins.
std::vector<Graph> rule_suite() {
  std::vector<Graph> gs = baseline_suite();
  for (const int n : {1, 2, 3, 6, 70}) {
    gs.push_back(graph::gen::complete(n));
    if (n >= 2) gs.push_back(complete_minus_edge(n));
  }
  gs.push_back(graph::gen::star(66));
  gs.push_back(graph::gen::star(300));
  Graph pairs = graph::gen::path(1);
  for (int i = 0; i < 4; ++i) {
    pairs = graph::disjoint_union(pairs, graph::disjoint_union(graph::gen::path(2),
                                                               graph::gen::path(1)));
  }
  gs.push_back(pairs);
  std::mt19937_64 rng(20261019);
  gs.push_back(graph::power(graph::gen::random_tree(40, rng), 2));
  gs.push_back(graph::power(graph::gen::caterpillar(6, 3), 2));
  return gs;
}

void expect_containment_matches(const Graph& g, std::mt19937_64& rng) {
  namespace ref = graph::detail;
  const Vertex n = g.num_vertices();
  const auto check = [&](Vertex a, Vertex b) {
    ASSERT_EQ(g.closed_neighborhood_contained(a, b),
              ref::closed_neighborhood_contained_reference(g, a, b))
        << g.summary() << " a=" << a << " b=" << b;
    ASSERT_EQ(g.true_twins(a, b), ref::true_twins_reference(g, a, b))
        << g.summary() << " a=" << a << " b=" << b;
  };
  // Every ordered pair at distance <= 1.
  for (Vertex a = 0; a < n; ++a) {
    check(a, a);
    for (Vertex b : g.neighbors(a)) check(a, b);
  }
  // Random pairs, nearly all at distance >= 2 on the larger graphs.
  for (int i = 0; n > 0 && i < 64; ++i) {
    check(static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n)),
          static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n)));
  }
  // Ids out of range, against each other and against real vertices.
  for (const Vertex bad : {Vertex{-1}, n, n + 7}) {
    for (const Vertex other : {Vertex{0}, n - 1, Vertex{-1}, n, bad}) {
      check(bad, other);
      check(other, bad);
    }
  }
}

TEST(RuleOracle, ContainmentEqualsTheSeed) {
  std::mt19937_64 rng(4343);
  for (const Graph& g : rule_suite()) expect_containment_matches(g, rng);
  std::mt19937_64 graphs(4444);
  for (int i = 0; i < 1000; ++i) expect_containment_matches(random_small_graph(graphs), rng);
}

void expect_theorem44_matches(const Graph& g, std::mt19937_64& rng) {
  namespace ref = core::detail;
  const std::vector<Vertex> want = ref::theorem44_mds_reference(g);
  ASSERT_EQ(core::theorem44_mds(g).solution, want) << g.summary();
  ASSERT_EQ(core::theorem44_mds(g, 3).solution, want) << g.summary();
  // The LOCAL decision reads the view's ids, shuffled here, not its indices.
  const local::Network net = local::Network::with_random_ids(g, rng);
  std::vector<Vertex> local_want;
  const std::vector<local::BallView> views = local::cut_views(net, 2);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const local::BallView& view = views[static_cast<std::size_t>(v)];
    const bool joins = ref::theorem44_mds_decision_reference(view);
    ASSERT_EQ(core::theorem44_mds_decision(view), joins) << g.summary() << " v=" << v;
    if (joins) local_want.push_back(v);
  }
  ASSERT_EQ(core::theorem44_mds_local(net).solution, local_want) << g.summary();
}

TEST(RuleOracle, Theorem44EqualsTheSeedCentralizedAndLocal) {
  std::mt19937_64 rng(4545);
  for (const Graph& g : rule_suite()) expect_theorem44_matches(g, rng);
  std::mt19937_64 graphs(4646);
  for (int i = 0; i < 1000; ++i) expect_theorem44_matches(random_small_graph(graphs), rng);
}

// Target sets of g: none, every vertex, balls of radius 1-3, and sparse and
// dense random subsets. Each is sorted and distinct.
std::vector<std::vector<Vertex>> target_sets(const Graph& g, std::mt19937_64& rng) {
  const int n = g.num_vertices();
  std::vector<std::vector<Vertex>> sets(2);
  for (Vertex v = 0; v < n; ++v) sets[1].push_back(v);
  if (n == 0) return sets;
  const auto any = [&] { return static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n)); };
  for (int r = 1; r <= 3; ++r) {
    for (int i = 0; i < 2; ++i) sets.push_back(graph::ball(g, any(), r));
  }
  for (const std::uint64_t in_of_eight : {1, 4}) {
    std::vector<Vertex> subset;
    for (Vertex v = 0; v < n; ++v) {
      if (rng() % 8 < in_of_eight) subset.push_back(v);
    }
    sets.push_back(std::move(subset));
  }
  return sets;
}

TEST(DecideOracle, DecideIsTheFullAnswerOnEveryTargetSet) {
  // decide(g, S) must equal the full answer ∩ S, at 1 and at 4 intra-graph
  // threads, for every registered solver with a decide. ksv's full solve is
  // its decide over every vertex, so its full answer is the seed code's: a
  // fault the two share still shows.
  const api::Registry& reg = api::Registry::instance();
  const int ksv_k = reg.at("ksv").param_default("k").as_int();
  std::vector<Graph> gs = rule_suite();
  std::mt19937_64 rng(4747);
  for (int i = 0; i < 200; ++i) gs.push_back(random_small_graph(rng));
  std::vector<std::string> with_decide;
  for (const api::SolverSpec* spec : reg.specs()) {
    if (!spec->decide) continue;
    with_decide.push_back(spec->name);
    const api::Options params = reg.resolve_options(spec->name, api::Request{});
    for (const Graph& g : gs) {
      api::Request req;
      req.graph = &g;
      const std::vector<Vertex> answer = spec->name == "ksv"
                                             ? core::detail::ksv_style_reference(g, ksv_k)
                                             : reg.run(spec->name, req).solution;
      const auto expect_decide = [&](const std::vector<Vertex>& targets, int threads) {
        std::vector<Vertex> want;
        std::set_intersection(answer.begin(), answer.end(), targets.begin(), targets.end(),
                              std::back_inserter(want));
        EXPECT_EQ(spec->decide({g, params, false, threads}, targets), want)
            << spec->name << " " << g.summary() << " |targets|=" << targets.size()
            << " threads=" << threads;
      };
      for (const std::vector<Vertex>& targets : target_sets(g, rng)) {
        for (const int threads : {1, 4}) expect_decide(targets, threads);
      }
      // Every single vertex, from which ksv's level prefixes reach
      // furthest; at one thread, so the n decides stay cheap.
      for (Vertex v = 0; v < g.num_vertices(); ++v) expect_decide({v}, 1);
      if (HasFailure()) return;
    }
  }
  EXPECT_EQ(with_decide, (std::vector<std::string>{"ksv", "take-all", "theorem44",
                                                   "theorem44-mvc", "tree-rule"}));
}

TEST(DecideOracle, RegistryPairsADecideWithALocalityRadius) {
  api::Registry reg;
  const auto solve = [](const api::SolveContext&) { return api::SolverOutput{}; };
  api::SolverSpec spec{.name = "take-all-again",
                       .problem = api::Problem::Mds,
                       .modes = {api::Mode::Centralized},
                       .summary = "a decide with no locality radius",
                       .params = {},
                       .locality_radius = -1,
                       .decide = api::decide_each<core::take_all_joins>};
  EXPECT_THROW(reg.add(spec, solve), std::invalid_argument);
  spec.locality_radius = 0;
  spec.decide = nullptr;
  EXPECT_THROW(reg.add(spec, solve), std::invalid_argument);
  spec.decide = api::decide_each<core::take_all_joins>;
  EXPECT_NO_THROW(reg.add(spec, solve));
}

// ---------------------------------------------------------------------------
// minimum_set_cover's lazy-heap greedy bound against the seed solver
// (solve::detail::minimum_set_cover_reference)

// The set system of exact_mds: set v is N[v].
std::vector<std::vector<int>> domination_sets(const Graph& g) {
  std::vector<std::vector<int>> sets;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::vector<Vertex> closed = g.closed_neighborhood(v);
    sets.emplace_back(closed.begin(), closed.end());
  }
  return sets;
}

void expect_set_cover_matches(const std::vector<std::vector<int>>& sets, int universe,
                              const std::string& where) {
  ASSERT_EQ(solve::minimum_set_cover(sets, universe, solve::kDefaultMaxNodes),
            solve::detail::minimum_set_cover_reference(sets, universe, solve::kDefaultMaxNodes))
      << where;
}

TEST(SetCoverOracle, MinimumSetCoverEqualsTheSeed) {
  // tests/test_solvers.cpp's explicit systems, a duplicate element and the
  // infeasible one.
  const std::vector<std::pair<std::vector<std::vector<int>>, int>> systems = {
      {{}, 0},
      {{{0, 1, 2}}, 3},
      {{{0}, {1}, {2}, {0, 1, 2}}, 3},
      {{{0, 1}, {2, 3}, {1, 2}}, 4},
      {{{0, 1}, {2, 3}, {4, 5}, {0, 2, 4}, {1, 3, 5}}, 6},
      {{{0, 0, 1}, {1, 2}, {2, 0}}, 3}};
  for (std::size_t i = 0; i < systems.size(); ++i) {
    expect_set_cover_matches(systems[i].first, systems[i].second, "system " + std::to_string(i));
  }
  EXPECT_THROW((void)solve::minimum_set_cover({{0}}, 2), std::runtime_error);
  EXPECT_THROW((void)solve::detail::minimum_set_cover_reference({{0}}, 2, 10), std::runtime_error);

  // tests/test_solvers.cpp's exact-MDS graphs.
  std::vector<Graph> gs;
  for (int n = 1; n <= 12; ++n) gs.push_back(graph::gen::path(n));
  for (int n = 3; n <= 12; ++n) gs.push_back(graph::gen::cycle(n));
  gs.push_back(graph::gen::star(20));
  gs.push_back(graph::gen::complete(8));
  gs.push_back(graph::gen::clique_with_pendants(8));
  std::mt19937_64 connected(5);
  for (int i = 0; i < 10; ++i) gs.push_back(graph::gen::random_connected(30, 15, connected));
  std::mt19937_64 trees(17);
  for (int i = 0; i < 15; ++i) gs.push_back(graph::gen::random_tree(40, trees));
  gs.push_back(graph::gen::grid(4, 4));
  gs.push_back(graph::gen::theta_chain(6, 4));
  // k disjoint P3's: the packing bound meets the greedy bound at the root,
  // so the greedy picks are the answer.
  for (const int k : {1, 7, 100, 1000}) {
    Graph p3s;
    for (int i = 0; i < k; ++i) p3s = graph::disjoint_union(p3s, graph::gen::path(3));
    gs.push_back(std::move(p3s));
  }
  for (const Graph& g : gs) {
    expect_set_cover_matches(domination_sets(g), g.num_vertices(), g.summary());
  }
  std::mt19937_64 rng(4848);
  for (int i = 0; i < 1000; ++i) {
    const Graph g = random_small_graph(rng);
    expect_set_cover_matches(domination_sets(g), g.num_vertices(),
                             "random graph " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// BallView id index (satellite: binary-search local_index_of)

TEST(BallViewIndex, LocalIndexOfFindsEveryIdAndRejectsUnknown) {
  std::mt19937_64 rng(23);
  const Graph g = graph::gen::grid(5, 5);
  const local::Network net = local::Network::with_random_ids(g, rng);
  const auto views = local::gather_views(net, 2);
  for (const local::BallView& view : views) {
    ASSERT_EQ(view.id_order.size(), view.ids.size());
    for (Vertex local = 0; local < view.num_vertices(); ++local) {
      EXPECT_EQ(view.local_index_of(view.ids[static_cast<std::size_t>(local)]), local);
    }
    // Ids are drawn from a 64-bit space; 0 and max are all but surely absent.
    EXPECT_EQ(view.local_index_of(0), graph::kNoVertex);
    EXPECT_EQ(view.local_index_of(~local::NodeId{0}), graph::kNoVertex);
  }
}

TEST(BallViewIndex, HandAssembledViewFallsBackToLinearScan) {
  local::BallView view;
  view.graph = graph::gen::path(3);
  view.ids = {50, 10, 30};  // no build_id_index() call: id_order stays empty
  EXPECT_EQ(view.local_index_of(10), 1);
  EXPECT_EQ(view.local_index_of(50), 0);
  EXPECT_EQ(view.local_index_of(99), graph::kNoVertex);
  view.build_id_index();
  EXPECT_EQ(view.local_index_of(10), 1);
  EXPECT_EQ(view.local_index_of(30), 2);
  EXPECT_EQ(view.local_index_of(99), graph::kNoVertex);
}

// ---------------------------------------------------------------------------
// Satellite fix: with_random_ids must actually permute

TEST(RandomIds, AssignmentIsShuffledDeterministicAndUnique) {
  const Graph g = graph::gen::path(64);
  std::mt19937_64 rng_a(123);
  std::mt19937_64 rng_b(123);
  const local::Network a = local::Network::with_random_ids(g, rng_a);
  const local::Network b = local::Network::with_random_ids(g, rng_b);
  EXPECT_EQ(a.ids(), b.ids()) << "same seed must give the same assignment";

  std::set<local::NodeId> unique(a.ids().begin(), a.ids().end());
  EXPECT_EQ(unique.size(), a.ids().size());
  // The old bug: ids were handed out in sorted order, so id rank leaked the
  // vertex index. A shuffled assignment of 64 ids is monotone with
  // probability 1/64! — if this is sorted, the shuffle is gone.
  EXPECT_FALSE(std::is_sorted(a.ids().begin(), a.ids().end()));
}

// ---------------------------------------------------------------------------
// Flooding semantics after the double-buffer rewrite

TEST(Flooding, KnowledgeAfterRPlusOneRoundsIsExactlyTheDistanceRuleSet) {
  std::mt19937_64 rng(31);
  for (const Graph& g : generator_suite()) {
    const local::Network net = local::Network::with_random_ids(g, rng);
    const auto edges = g.edges();
    for (int rounds : {1, 3}) {
      local::FloodingState flooding(net);
      local::TrafficStats stats;
      flooding.run(rounds, stats);
      EXPECT_EQ(stats.rounds, rounds);
      EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(rounds) * 2 *
                                    static_cast<std::uint64_t>(g.num_edges()));
      // Invariant of k flooding rounds: v knows exactly the edges with an
      // endpoint at distance <= k (incident edges at k=0, +1 hop per round).
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto dist = graph::bfs_distances(g, v);
        std::vector<int> expected;
        for (int e = 0; e < g.num_edges(); ++e) {
          const auto du = dist[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].u)];
          const auto dv = dist[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].v)];
          const bool known = (du >= 0 && du <= rounds) || (dv >= 0 && dv <= rounds);
          if (known) expected.push_back(e);
          EXPECT_EQ(flooding.knows_edge(v, e), known) << "v=" << v << " e=" << e;
        }
        EXPECT_EQ(flooding.known_edges(v), expected) << "v=" << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Executor: intra-graph threading is response-invisible for every solver

TEST(IntraGraph, EverySolverIsBitIdenticalAcrossIntraThreadCounts) {
  const auto graphs_vec = generator_suite();
  const std::span<const Graph> graphs(graphs_vec);
  api::BatchExecutor executor(api::BatchOptions{});
  for (const api::SolverSpec* spec : api::Registry::instance().specs()) {
    api::Request req;
    req.measure_ratio = true;
    api::BatchOverrides seq_over;
    seq_over.intra_graph_threads = 1;
    seq_over.bypass_cache = true;
    api::BatchOverrides par_over;
    par_over.intra_graph_threads = 4;
    par_over.threads = 2;  // compose with cross-graph sharding
    par_over.bypass_cache = true;
    api::BatchDiagnostics par_diag;
    const auto seq = executor.run_batch(spec->name, graphs, req, seq_over);
    const auto par = executor.run_batch(spec->name, graphs, req, par_over, &par_diag);
    EXPECT_EQ(par_diag.intra_threads, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].solution, par[i].solution) << spec->name << " graph " << i;
      EXPECT_EQ(seq[i].valid, par[i].valid) << spec->name << " graph " << i;
      EXPECT_EQ(seq[i].ratio, par[i].ratio) << spec->name << " graph " << i;
      EXPECT_EQ(seq[i].diag.rounds, par[i].diag.rounds) << spec->name << " graph " << i;
    }
  }
}

TEST(IntraGraph, LocalModeTrafficIsIdenticalAcrossIntraThreadCounts) {
  const auto graphs_vec = generator_suite();
  const std::span<const Graph> graphs(graphs_vec);
  api::BatchExecutor executor(api::BatchOptions{});
  for (const api::SolverSpec* spec : api::Registry::instance().specs()) {
    if (!spec->supports(api::Mode::Local)) continue;
    api::Request req;
    req.measure_traffic = true;
    api::BatchOverrides seq_over;
    seq_over.intra_graph_threads = 1;
    seq_over.bypass_cache = true;
    api::BatchOverrides par_over;
    par_over.intra_graph_threads = 3;
    par_over.bypass_cache = true;
    const auto seq = executor.run_batch(spec->name, graphs, req, seq_over);
    const auto par = executor.run_batch(spec->name, graphs, req, par_over);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].solution, par[i].solution) << spec->name << " graph " << i;
      EXPECT_EQ(seq[i].diag.traffic, par[i].diag.traffic) << spec->name << " graph " << i;
    }
  }
}

TEST(IntraGraph, OversizedOverrideIsARequestError) {
  api::BatchExecutor executor(api::BatchOptions{});
  const std::vector<Graph> graphs_vec = {graph::gen::path(4)};
  api::BatchOverrides over;
  over.intra_graph_threads = 5000;
  EXPECT_THROW(executor.run_batch("greedy", std::span<const Graph>(graphs_vec),
                                  api::Request{}, over),
               api::RequestError);
}

// ---------------------------------------------------------------------------
// Protocol: the intra_threads batch override on both transports

TEST(Protocol, IntraThreadsOverrideRoundTripsOverTcpTransport) {
  server::ServerOptions opts;
  opts.core.batch.threads = 1;
  opts.core.snapshot_dir.clear();
  server::Server server(opts);
  const Graph g = graph::gen::grid(4, 4);
  const std::string graph_json = server::encode_graph_json(g);

  const std::string plain = server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":[" + graph_json + "]}");
  const server::JsonValue plain_parsed = server::json_parse(plain);
  ASSERT_TRUE(plain_parsed.find("ok")->as_bool()) << plain;
  // Single-threaded responses stay byte-compatible: no intra_threads field.
  EXPECT_EQ(plain_parsed.find("diag")->find("intra_threads"), nullptr);

  const std::string sharded = server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"batch\":{\"intra_threads\":2,"
      "\"no_cache\":true},\"graphs\":[" + graph_json + "]}");
  const server::JsonValue sharded_parsed = server::json_parse(sharded);
  ASSERT_TRUE(sharded_parsed.find("ok")->as_bool()) << sharded;
  EXPECT_EQ(sharded_parsed.find("diag")->find("intra_threads")->as_int(), 2);
  // Same solution either way.
  const auto solution_of = [](const server::JsonValue& parsed) {
    std::vector<long long> out;
    for (const server::JsonValue& v :
         parsed.find("responses")->as_array().at(0).find("solution")->as_array()) {
      out.push_back(v.as_int());
    }
    return out;
  };
  EXPECT_EQ(solution_of(plain_parsed), solution_of(sharded_parsed));

  for (const std::string& bad :
       {std::string("{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"intra_threads\":0},"
                    "\"graphs\":[" + graph_json + "]}"),
        std::string("{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"intra_threads\":65536},"
                    "\"graphs\":[" + graph_json + "]}"),
        std::string("{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"frobnicate\":1},"
                    "\"graphs\":[" + graph_json + "]}")}) {
    const server::JsonValue parsed = server::json_parse(server.handle_line(bad));
    EXPECT_FALSE(parsed.find("ok")->as_bool()) << bad;
    EXPECT_EQ(parsed.find("code")->as_string(), "bad_request") << bad;
  }
}

TEST(Protocol, IntraThreadsOverrideRoundTripsOverHttpTransport) {
  server::CoreOptions core_opts;
  core_opts.batch.threads = 1;
  core_opts.snapshot_dir.clear();
  server::ServerCore core(core_opts, api::Registry::instance());
  server::Session session(core);

  server::HttpRequest req;
  req.method = "POST";
  req.target = "/v2/solve";
  req.body =
      "{\"solver\":\"theorem44\",\"batch\":{\"intra_threads\":2,\"no_cache\":true},"
      "\"graphs\":[{\"n\":4,\"edges\":[[0,1],[1,2],[2,3]]}]}";
  const std::string response = server::handle_http_request(req, session);
  EXPECT_EQ(std::atoi(response.c_str() + sizeof("HTTP/1.1 ") - 1), 200);
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const server::JsonValue body = server::json_parse(response.substr(split + 4));
  ASSERT_TRUE(body.find("ok")->as_bool());
  EXPECT_EQ(body.find("diag")->find("intra_threads")->as_int(), 2);
}

}  // namespace
}  // namespace lmds
