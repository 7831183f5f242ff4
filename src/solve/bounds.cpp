#include "solve/bounds.hpp"

#include <algorithm>

#include "graph/bfs.hpp"

namespace lmds::solve {

std::vector<Vertex> two_packing(const Graph& g) {
  // blocked[v] == 1 when v is within distance 2 of an already packed vertex.
  std::vector<char> blocked(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Vertex> packed;
  graph::BfsScratch scratch;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (blocked[static_cast<std::size_t>(v)]) continue;
    packed.push_back(v);
    const Vertex sources[] = {v};
    graph::mark_ball(g, sources, 2, scratch);
    for (Vertex w : scratch.visited()) blocked[static_cast<std::size_t>(w)] = 1;
  }
  return packed;
}

int mds_lower_bound(const Graph& g) { return static_cast<int>(two_packing(g).size()); }

int mvc_lower_bound(const Graph& g) {
  std::vector<char> matched(static_cast<std::size_t>(g.num_vertices()), 0);
  int matching = 0;
  for (const graph::Edge e : g.edges()) {
    if (!matched[static_cast<std::size_t>(e.u)] && !matched[static_cast<std::size_t>(e.v)]) {
      matched[static_cast<std::size_t>(e.u)] = 1;
      matched[static_cast<std::size_t>(e.v)] = 1;
      ++matching;
    }
  }
  return matching;
}

int mds_degree_lower_bound(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return 0;
  int max_degree = 0;
  for (Vertex v = 0; v < n; ++v) max_degree = std::max(max_degree, g.degree(v));
  return (n + max_degree) / (max_degree + 1);
}

}  // namespace lmds::solve
