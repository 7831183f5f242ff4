#include "support/global_cuts.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace lmds::cuts {

namespace {

// A vertex is a cut vertex iff it lies in two or more blocks.
std::vector<Vertex> cut_vertices_of(const Graph& g, const std::vector<std::vector<Vertex>>& blocks) {
  std::vector<int> count(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const auto& block : blocks) {
    for (Vertex v : block) ++count[static_cast<std::size_t>(v)];
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (count[static_cast<std::size_t>(v)] >= 2) result.push_back(v);
  }
  return result;
}

// Condition (2) in a host graph h where {u, v} is a minimal 2-cut: at least
// two components of h − {u, v} that the pair touches hold a vertex
// non-adjacent to u. A component holds a neighbour of u or of v iff it is
// reachable from the pair in h, i.e. lies in the pair's own component.
bool condition2(const Graph& h, Vertex v, Vertex u) {
  const Vertex removed[] = {u, v};
  const auto comps = graph::components_without(h, removed);
  const std::vector<int> reach = graph::bfs_distances_multi(h, removed);
  std::vector<char> has_nonneighbor(static_cast<std::size_t>(comps.count), 0);
  for (Vertex w = 0; w < h.num_vertices(); ++w) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c >= 0 && reach[static_cast<std::size_t>(w)] >= 0 && !h.has_edge(w, u)) {
      has_nonneighbor[static_cast<std::size_t>(c)] = 1;
    }
  }
  return std::count(has_nonneighbor.begin(), has_nonneighbor.end(), 1) >= 2;
}

// Conditions (1) N[v] ⊄ N[u] and (2), both in h.
bool interesting_conditions(const Graph& h, Vertex v, Vertex u) {
  return !h.closed_neighborhood_contained(v, u) && condition2(h, v, u);
}

}  // namespace

std::vector<Vertex> articulation_points(const Graph& g) {
  return cut_vertices_of(g, biconnected_blocks(g));
}

bool is_cut_vertex(const Graph& g, Vertex v) {
  const int before = graph::connected_components(g).count;
  const Vertex removed[] = {v};
  const int after = graph::components_without(g, removed).count;
  return after > before;
}

int BlockCutTree::cut_index(Vertex v) const {
  const auto it = std::lower_bound(cut_vertices.begin(), cut_vertices.end(), v);
  if (it == cut_vertices.end() || *it != v) return -1;
  return static_cast<int>(it - cut_vertices.begin());
}

std::vector<int> BlockCutTree::blocks_of(Vertex v) const {
  std::vector<int> result;
  for (int b = 0; b < num_blocks(); ++b) {
    if (std::binary_search(blocks[static_cast<std::size_t>(b)].begin(),
                           blocks[static_cast<std::size_t>(b)].end(), v)) {
      result.push_back(b);
    }
  }
  return result;
}

BlockCutTree block_cut_tree(const Graph& g) {
  BlockCutTree result;
  result.blocks = biconnected_blocks(g);
  result.cut_vertices = cut_vertices_of(g, result.blocks);
  graph::GraphBuilder builder(result.num_blocks() + result.num_cut_vertices());
  for (int b = 0; b < result.num_blocks(); ++b) {
    for (Vertex v : result.blocks[static_cast<std::size_t>(b)]) {
      const int j = result.cut_index(v);
      if (j != -1) builder.add_edge(static_cast<Vertex>(b), result.cut_node(j));
    }
  }
  result.tree = builder.build();
  return result;
}

int full_component_count(const Graph& g, Vertex u, Vertex v) {
  if (u == v || !g.has_vertex(u) || !g.has_vertex(v)) return 0;
  const Vertex removed[] = {u, v};
  const auto comps = graph::components_without(g, removed);
  if (comps.count == 0) return 0;
  std::vector<char> touches_u(static_cast<std::size_t>(comps.count), 0);
  std::vector<char> touches_v(static_cast<std::size_t>(comps.count), 0);
  for (Vertex w : g.neighbors(u)) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c >= 0) touches_u[static_cast<std::size_t>(c)] = 1;
  }
  for (Vertex w : g.neighbors(v)) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c >= 0) touches_v[static_cast<std::size_t>(c)] = 1;
  }
  int full = 0;
  for (int c = 0; c < comps.count; ++c) {
    if (touches_u[static_cast<std::size_t>(c)] && touches_v[static_cast<std::size_t>(c)]) ++full;
  }
  return full;
}

bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v) {
  return full_component_count(g, u, v) >= 2;
}

std::vector<VertexPair> minimal_two_cuts(const Graph& g) {
  std::vector<VertexPair> result;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = u + 1; v < g.num_vertices(); ++v) {
      if (is_minimal_two_cut(g, u, v)) result.push_back({u, v});
    }
  }
  return result;
}

std::vector<Vertex> vertices_in_minimal_two_cuts(const Graph& g) {
  std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const VertexPair p : minimal_two_cuts(g)) {
    in[static_cast<std::size_t>(p.u)] = 1;
    in[static_cast<std::size_t>(p.v)] = 1;
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  return result;
}

bool certifies_globally_interesting(const Graph& g, Vertex v, Vertex u) {
  if (u == v) return false;
  if (!is_minimal_two_cut(g, u, v)) return false;
  return interesting_conditions(g, v, u);
}

bool is_globally_interesting(const Graph& g, Vertex v) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (u == v) continue;
    if (certifies_globally_interesting(g, v, u)) return true;
  }
  return false;
}

std::vector<Vertex> globally_interesting_vertices(const Graph& g) {
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_globally_interesting(g, v)) result.push_back(v);
  }
  return result;
}

bool is_almost_interesting(const Graph& g, Vertex v) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (u != v && is_minimal_two_cut(g, u, v) && condition2(g, v, u)) return true;
  }
  return false;
}

}  // namespace lmds::cuts
