#include "support/rule_reference.hpp"

namespace lmds::graph::detail {

bool closed_neighborhood_contained_reference(const Graph& g, Vertex a, Vertex b) {
  if (a == b) return true;
  // N[a] ⊆ N[b] requires a ∈ N[b], i.e. a and b adjacent.
  if (!g.has_edge(a, b)) return false;
  for (Vertex w : g.neighbors(a)) {
    if (w == b) continue;
    if (!g.has_edge(w, b)) return false;
  }
  return true;
}

bool true_twins_reference(const Graph& g, Vertex a, Vertex b) {
  return closed_neighborhood_contained_reference(g, a, b) &&
         closed_neighborhood_contained_reference(g, b, a);
}

}  // namespace lmds::graph::detail

namespace lmds::core::detail {

namespace {

using graph::Graph;
using graph::Vertex;
using graph::detail::closed_neighborhood_contained_reference;
using graph::detail::true_twins_reference;

// N[a] ⊊ N[b] in the given graph (strict containment).
bool strictly_contained(const Graph& g, Vertex a, Vertex b) {
  return closed_neighborhood_contained_reference(g, a, b) &&
         !closed_neighborhood_contained_reference(g, b, a);
}

// The Theorem 4.4 MDS rule evaluated for vertex v of graph g with the given
// identifiers: minimum-id twin representative, and no strictly larger closed
// neighbourhood anywhere. Any u with N[v] ⊆ N[u] is adjacent to v, so
// scanning N(v) is exhaustive.
bool mds_rule(const Graph& g, Vertex v, const std::vector<local::NodeId>& ids) {
  for (Vertex u : g.neighbors(v)) {
    if (true_twins_reference(g, v, u) &&
        ids[static_cast<std::size_t>(u)] < ids[static_cast<std::size_t>(v)]) {
      return false;  // not the class representative
    }
    if (strictly_contained(g, v, u)) return false;  // gamma(v) == 1 in G^-
  }
  return true;
}

}  // namespace

std::vector<Vertex> theorem44_mds_reference(const Graph& g) {
  std::vector<local::NodeId> ids(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ids[static_cast<std::size_t>(v)] = static_cast<local::NodeId>(v);
  }
  std::vector<Vertex> solution;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (mds_rule(g, v, ids)) solution.push_back(v);
  }
  return solution;
}

bool theorem44_mds_decision_reference(const local::BallView& view) {
  return mds_rule(view.graph, view.centre, view.ids);
}

}  // namespace lmds::core::detail
