// Hot-path differential suite: the CSR-native view extraction and the
// intra-graph threading mode must be BIT-IDENTICAL to the seed
// implementations they replaced. The seed code survives in
// local::detail::{gather_views_reference, cut_view_reference}
// (tests/support/view_reference.hpp) precisely so this file can hold it against the rewrite on every generator, every
// radius, and adversarial (shuffled) id assignments; the executor half
// asserts every registered solver returns the same Response for every
// intra_threads value, composed with cross-graph sharding and both
// transports' batch-override decode.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "ding/generators.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "local/simulator.hpp"
#include "local/view.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
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
