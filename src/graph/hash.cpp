#include "graph/hash.hpp"

namespace lmds::graph {

std::uint64_t graph_hash(const Graph& g) {
  const int n = g.num_vertices();
  GraphHasher hasher(n);
  for (Vertex v = 0; v < n; ++v) hasher.add_row(g.neighbors(v));
  return hasher.value();
}

}  // namespace lmds::graph
