#include "support/cut_reference.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/ops.hpp"
#include "support/global_cuts.hpp"
#include "support/rule_reference.hpp"

namespace lmds::cuts::detail {

namespace {

void require_radius(int r) {
  if (r < 1) throw std::invalid_argument("local cuts: radius must be >= 1");
}

// Condition (2) in a host graph h where {u, v} is a minimal 2-cut: at least
// two components of h − {u, v} hold a vertex non-adjacent to u.
bool condition2(const Graph& h, Vertex v, Vertex u) {
  const Vertex removed[] = {u, v};
  const auto comps = graph::components_without(h, removed);
  std::vector<char> has_nonneighbor(static_cast<std::size_t>(comps.count), 0);
  for (Vertex w = 0; w < h.num_vertices(); ++w) {
    const int c = comps.component[static_cast<std::size_t>(w)];
    if (c >= 0 && !h.has_edge(w, u)) has_nonneighbor[static_cast<std::size_t>(c)] = 1;
  }
  return std::count(has_nonneighbor.begin(), has_nonneighbor.end(), 1) >= 2;
}

// Conditions (1) and (2). (1) N_G[v] ⊄ N_G[u] is evaluated in h, which
// agrees with g because h contains the full 1-balls of u and v.
bool interesting_conditions(const Graph& h, Vertex v, Vertex u) {
  return !graph::detail::closed_neighborhood_contained_reference(h, v, u) &&
         condition2(h, v, u);
}

}  // namespace

bool is_local_one_cut_reference(const Graph& g, Vertex v, int r) {
  require_radius(r);
  if (!g.has_vertex(v)) throw std::invalid_argument("is_local_one_cut: bad vertex");
  const auto ball_vertices = graph::ball(g, v, r);
  const auto sub = graph::induced_subgraph(g, ball_vertices);
  return is_cut_vertex(sub.graph, sub.from_parent[static_cast<std::size_t>(v)]);
}

std::vector<Vertex> local_one_cuts_reference(const Graph& g, int r) {
  require_radius(r);
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_local_one_cut_reference(g, v, r)) result.push_back(v);
  }
  return result;
}

bool is_local_two_cut_reference(const Graph& g, Vertex u, Vertex v, int r) {
  require_radius(r);
  if (u == v) return false;
  if (!g.has_vertex(u) || !g.has_vertex(v)) throw std::invalid_argument("is_local_two_cut: bad vertex");
  const int d = graph::distance(g, u, v);
  if (d < 0 || d > r) return false;
  const Vertex sources[] = {u, v};
  const auto ball_vertices = graph::ball_of_set(g, sources, r);
  const auto sub = graph::induced_subgraph(g, ball_vertices);
  return is_minimal_two_cut(sub.graph, sub.from_parent[static_cast<std::size_t>(u)],
                            sub.from_parent[static_cast<std::size_t>(v)]);
}

std::vector<VertexPair> local_two_cuts_reference(const Graph& g, int r) {
  require_radius(r);
  std::vector<VertexPair> result;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    // Candidates are the vertices within distance r of u (with larger index,
    // to emit each pair once).
    for (Vertex v : graph::ball(g, u, r)) {
      if (v <= u) continue;
      if (is_local_two_cut_reference(g, u, v, r)) result.push_back({u, v});
    }
  }
  return result;
}

std::vector<Vertex> vertices_in_local_two_cuts_reference(const Graph& g, int r) {
  std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const VertexPair p : local_two_cuts_reference(g, r)) {
    in[static_cast<std::size_t>(p.u)] = 1;
    in[static_cast<std::size_t>(p.v)] = 1;
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  return result;
}

bool certifies_interesting_reference(const Graph& g, Vertex v, Vertex u, int r) {
  if (u == v) return false;
  const int d = graph::distance(g, u, v);
  if (d < 0 || d > r) return false;
  const Vertex sources[] = {u, v};
  const auto ball_vertices = graph::ball_of_set(g, sources, r);
  const auto sub = graph::induced_subgraph(g, ball_vertices);
  const Vertex su = sub.from_parent[static_cast<std::size_t>(u)];
  const Vertex sv = sub.from_parent[static_cast<std::size_t>(v)];
  if (!is_minimal_two_cut(sub.graph, su, sv)) return false;
  // The 1-balls of u and v lie inside the r-ball of {u, v} (r >= 1), so
  // closed neighbourhoods agree between g and the ball graph.
  return interesting_conditions(sub.graph, sv, su);
}

bool is_interesting_reference(const Graph& g, Vertex v, int r) {
  for (Vertex u : graph::ball(g, v, r)) {
    if (u == v) continue;
    if (certifies_interesting_reference(g, v, u, r)) return true;
  }
  return false;
}

bool in_local_two_cut_reference(const Graph& g, Vertex v, int r) {
  for (Vertex u : graph::ball(g, v, r)) {
    if (u != v && is_local_two_cut_reference(g, v, u, r)) return true;
  }
  return false;
}

std::vector<Vertex> interesting_vertices_reference(const Graph& g, int r) {
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_interesting_reference(g, v, r)) result.push_back(v);
  }
  return result;
}

}  // namespace lmds::cuts::detail
