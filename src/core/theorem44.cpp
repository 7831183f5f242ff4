#include "core/theorem44.hpp"

#include <functional>
#include <utility>

#include "common/parallel.hpp"
#include "core/constants.hpp"

namespace lmds::core {

namespace {

// The Theorem 4.4 MDS rule at vertex v of g, with `before(u, v)` true iff
// u's identifier is smaller than v's: v joins unless a neighbour u has
// N[v] ⊆ N[u] and either a larger closed neighbourhood (N[v] ⊊ N[u],
// gamma(v) == 1 in G^-) or an equal one and a smaller id (v is not its true-
// twin class's representative). |N[v]| = |N[u]| with N[v] ⊆ N[u] is
// equality, so one containment test per neighbour decides both cases. Any u
// with N[v] ⊆ N[u] is adjacent to v, so scanning N(v) is exhaustive.
template <typename Before>
bool mds_rule(const Graph& g, Vertex v, const Before& before) {
  const int deg = g.degree(v);
  for (Vertex u : g.neighbors(v)) {
    if (!g.closed_neighborhood_contained(v, u)) continue;
    if (g.degree(u) > deg || before(u, v)) return false;
  }
  return true;
}

// The Theorem 4.4 MVC rule for vertex v.
template <typename Before>
bool mvc_rule(const Graph& g, Vertex v, const Before& before) {
  const int deg = g.degree(v);
  if (deg >= 2) return true;
  if (deg == 0) return false;
  const Vertex u = g.neighbors(v)[0];
  // Isolated edge: the smaller id endpoint joins.
  return g.degree(u) == 1 && before(v, u);
}

// Identifier order of a view: its local indices follow the topology, its ids
// are the network's.
auto view_order(const local::BallView& view) {
  return [&view](Vertex a, Vertex b) {
    return view.ids[static_cast<std::size_t>(a)] < view.ids[static_cast<std::size_t>(b)];
  };
}

// A centralized run: the ascending {v : Joins(g, v)}, in the rule's 3 rounds.
template <bool (*Joins)(const Graph&, Vertex)>
SolverOutput centralized(const Graph& g, int threads) {
  SolverOutput out;
  out.solution =
      common::parallel_select(g.num_vertices(), threads, [&](Vertex v) { return Joins(g, v); });
  out.diag.rounds = PaperConstants::kTheorem44Rounds;
  return out;
}

// A LOCAL run on radius-2 views, with the simulator's rounds and traffic.
SolverOutput measured(const local::Network& net, int threads,
                      bool (*decision)(const local::BallView&)) {
  local::RunResult run = local::run_ball_algorithm(net, 2, decision, threads);
  SolverOutput out;
  out.solution = std::move(run.selected);
  out.diag.rounds = run.traffic.rounds;
  out.diag.traffic = run.traffic;
  out.diag.traffic_measured = true;
  return out;
}

}  // namespace

bool theorem44_mds_joins(const Graph& g, Vertex v) { return mds_rule(g, v, std::less<>{}); }

bool theorem44_mvc_joins(const Graph& g, Vertex v) { return mvc_rule(g, v, std::less<>{}); }

bool theorem44_mds_decision(const local::BallView& view) {
  return mds_rule(view.graph, view.centre, view_order(view));
}

bool theorem44_mvc_decision(const local::BallView& view) {
  return mvc_rule(view.graph, view.centre, view_order(view));
}

SolverOutput theorem44_mds(const Graph& g, int threads) {
  return centralized<theorem44_mds_joins>(g, threads);
}

SolverOutput theorem44_mds_local(const local::Network& net, int threads) {
  return measured(net, threads, theorem44_mds_decision);
}

SolverOutput theorem44_mvc(const Graph& g, int threads) {
  return centralized<theorem44_mvc_joins>(g, threads);
}

SolverOutput theorem44_mvc_local(const local::Network& net, int threads) {
  return measured(net, threads, theorem44_mvc_decision);
}

}  // namespace lmds::core
