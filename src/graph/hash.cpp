#include "graph/hash.hpp"

#include <algorithm>

namespace lmds::graph {

std::uint64_t row_terms(Vertex v, std::span<const Vertex> sorted_neighbors) {
  std::uint64_t sum = 0;
  // The terms are independent, so this loop has no serial mix chain.
  const auto higher = std::upper_bound(sorted_neighbors.begin(), sorted_neighbors.end(), v);
  for (auto it = higher; it != sorted_neighbors.end(); ++it) sum += edge_term(v, *it);
  return sum;
}

std::uint64_t graph_hash(const Graph& g) {
  const int n = g.num_vertices();
  std::uint64_t h = vertex_count_term(n);
  for (Vertex v = 0; v < n; ++v) h += row_terms(v, g.neighbors(v));
  return h;
}

std::uint64_t patched_hash(std::uint64_t parent_hash, int parent_n, int child_n,
                           std::span<const Edge> added, std::span<const Edge> removed) {
  std::uint64_t h = parent_hash - vertex_count_term(parent_n) + vertex_count_term(child_n);
  for (const Edge& e : removed) h -= edge_term(e.u, e.v);
  for (const Edge& e : added) h += edge_term(e.u, e.v);
  return h;
}

}  // namespace lmds::graph
