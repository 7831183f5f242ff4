#include "core/theorem44.hpp"

#include "common/parallel.hpp"
#include "core/constants.hpp"

namespace lmds::core {

namespace {

// N[a] ⊊ N[b] in the given graph (strict containment).
bool strictly_contained(const Graph& g, Vertex a, Vertex b) {
  return g.closed_neighborhood_contained(a, b) && !g.closed_neighborhood_contained(b, a);
}

// The Theorem 4.4 MDS rule evaluated for vertex v of graph g with the given
// identifiers: minimum-id twin representative, and no strictly larger closed
// neighbourhood anywhere. Any u with N[v] ⊆ N[u] is adjacent to v, so
// scanning N(v) is exhaustive.
bool mds_rule(const Graph& g, Vertex v, const std::vector<local::NodeId>& ids) {
  for (Vertex u : g.neighbors(v)) {
    if (g.true_twins(v, u) &&
        ids[static_cast<std::size_t>(u)] < ids[static_cast<std::size_t>(v)]) {
      return false;  // not the class representative
    }
    if (strictly_contained(g, v, u)) return false;  // gamma(v) == 1 in G^-
  }
  return true;
}

// The Theorem 4.4 MVC rule for vertex v.
bool mvc_rule(const Graph& g, Vertex v, const std::vector<local::NodeId>& ids) {
  const int deg = g.degree(v);
  if (deg >= 2) return true;
  if (deg == 0) return false;
  const Vertex u = g.neighbors(v)[0];
  // Isolated edge: the smaller id endpoint joins.
  return g.degree(u) == 1 && ids[static_cast<std::size_t>(v)] < ids[static_cast<std::size_t>(u)];
}

std::vector<local::NodeId> identity_ids(int n) {
  std::vector<local::NodeId> ids(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) ids[static_cast<std::size_t>(v)] = static_cast<local::NodeId>(v);
  return ids;
}

}  // namespace

bool theorem44_mds_decision(const local::BallView& view) {
  return mds_rule(view.graph, view.centre, view.ids);
}

bool theorem44_mvc_decision(const local::BallView& view) {
  return mvc_rule(view.graph, view.centre, view.ids);
}

Theorem44Result theorem44_mds(const Graph& g, int threads) {
  Theorem44Result result;
  const auto ids = identity_ids(g.num_vertices());
  result.solution = common::parallel_select(g.num_vertices(), threads,
                                            [&](Vertex v) { return mds_rule(g, v, ids); });
  result.traffic.rounds = PaperConstants::kTheorem44Rounds;
  return result;
}

Theorem44Result theorem44_mds_local(const local::Network& net, int threads) {
  Theorem44Result result;
  const auto run = local::run_ball_algorithm(net, 2, theorem44_mds_decision, threads);
  result.solution = run.selected;
  result.traffic = run.traffic;
  return result;
}

Theorem44Result theorem44_mvc(const Graph& g, int threads) {
  Theorem44Result result;
  const auto ids = identity_ids(g.num_vertices());
  result.solution = common::parallel_select(g.num_vertices(), threads,
                                            [&](Vertex v) { return mvc_rule(g, v, ids); });
  result.traffic.rounds = PaperConstants::kTheorem44Rounds;
  return result;
}

Theorem44Result theorem44_mvc_local(const local::Network& net, int threads) {
  Theorem44Result result;
  const auto run = local::run_ball_algorithm(net, 2, theorem44_mvc_decision, threads);
  result.solution = run.selected;
  result.traffic = run.traffic;
  return result;
}

}  // namespace lmds::core
