// Structure explorer: dissects a graph — block-cut tree, SPQR decomposition,
// r-local cuts at several radii, interesting vertices, and the §5.3
// interesting-2-cut forest — then runs every solver the api::Registry knows
// on it, so the structural view and the algorithmic outcomes sit side by
// side. The r-local cuts are the library's; the block-cut tree, SPQR tree
// and forest are the analysis code in tests/support (lmds_test_support).
// Run on a terminal it demonstrates on a built-in instance; otherwise it
// reads an edge list from stdin, so empty input dissects the empty graph.
//
//   $ ./cut_explorer < graph.txt
//   $ ./cut_explorer            # built-in demo graph
//   $ ./cut_explorer < /dev/null  # the empty graph

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <unistd.h>

#include "api/registry.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "support/cut_forest.hpp"
#include "support/global_cuts.hpp"
#include "support/spqr_tree.hpp"

int main() {
  using namespace lmds;

  graph::Graph g;
  if (isatty(STDIN_FILENO)) {
    // Demo: a C8 with a chord plus a pendant fan — shows every node type.
    graph::GraphBuilder b(8);
    b.add_cycle({0, 1, 2, 3, 4, 5, 6, 7});
    b.add_edge(0, 4);
    for (graph::Vertex p = 8; p < 12; ++p) b.add_edge(2, p);
    b.add_path({8, 9, 10, 11});
    g = b.build();
    std::printf("no stdin graph; using the built-in demo %s\n", g.summary().c_str());
  } else {
    g = graph::read_edge_list(std::cin);
    std::printf("read %s\n", g.summary().c_str());
  }
  std::printf("fingerprint %016llx (graph_hash — the response-cache key component)\n",
              static_cast<unsigned long long>(graph::graph_hash(g)));

  std::printf("\n== block-cut tree ==\n");
  const auto bct = cuts::block_cut_tree(g);
  std::printf("%d blocks, %d cut vertices\n", bct.num_blocks(), bct.num_cut_vertices());
  for (int b = 0; b < bct.num_blocks(); ++b) {
    std::printf("  block %d:", b);
    for (graph::Vertex v : bct.blocks[static_cast<std::size_t>(b)]) std::printf(" %d", v);
    std::printf("\n");
  }

  std::printf("\n== SPQR decomposition (per biconnected block) ==\n");
  for (int bi = 0; bi < bct.num_blocks(); ++bi) {
    const auto& block = bct.blocks[static_cast<std::size_t>(bi)];
    if (block.size() < 3) continue;
    const auto sub = graph::induced_subgraph(g, block);
    const auto tree = spqr::spqr_tree(sub.graph);
    std::printf("block %d: %d SPQR nodes (", bi, tree.num_nodes());
    std::printf("%zu S, %zu P, %zu R)\n", tree.nodes_of_type(spqr::NodeType::kS).size(),
                tree.nodes_of_type(spqr::NodeType::kP).size(),
                tree.nodes_of_type(spqr::NodeType::kR).size());
  }

  std::printf("\n== r-local cuts ==\n");
  // The last radius covers the whole graph; local cuts need r >= 1.
  for (const int r : {1, 2, 3, std::max(1, g.num_vertices())}) {
    const auto ones = cuts::local_one_cuts(g, r);
    const auto interesting = cuts::interesting_vertices(g, r);
    std::printf("r = %-3d  local 1-cuts: %3zu   interesting vertices: %3zu\n", r, ones.size(),
                interesting.size());
  }

  std::printf("\n== interesting-2-cut forest (Proposition 5.8) ==\n");
  const auto forest = spqr::interesting_cut_forest(g);
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("P%zu:", i + 1);
    for (const cuts::VertexPair p : forest.families[i]) std::printf(" {%d,%d}", p.u, p.v);
    std::printf("\n");
  }

  // How the structure plays out algorithmically: every registered solver on
  // this graph, through the uniform Request -> Response surface. The exact
  // references are skipped on large inputs (branch & bound).
  std::printf("\n== every registered solver on this graph ==\n");
  const auto& registry = api::Registry::instance();
  for (const api::SolverSpec* spec : registry.specs()) {
    if (spec->name.rfind("exact", 0) == 0 && g.num_vertices() > 60) {
      std::printf("%-15s (skipped: n > 60)\n", spec->name.c_str());
      continue;
    }
    api::Request req;
    req.graph = &g;
    const api::Response res = registry.run(spec->name, req);
    std::printf("%-15s (%s) |S| = %3zu  %s", spec->name.c_str(),
                std::string(to_string(spec->problem)).c_str(), res.solution.size(),
                res.valid ? "valid" : "INVALID");
    if (res.diag.rounds >= 0) std::printf("  rounds %d", res.diag.rounds);
    std::printf("\n");
  }

  std::printf("\nDOT of the input (pipe to `dot -Tpng`):\n%s", graph::to_dot(g).c_str());
  return 0;
}
