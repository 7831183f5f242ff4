#include "support/view_reference.hpp"

#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/ops.hpp"

namespace lmds::local::detail {

namespace {

// Builds the view of `centre` from an arbitrary set of known edges. The
// known edges must include all edges of G[N^radius[centre]] (guaranteed
// after radius+1 flooding rounds).
BallView view_from_edges(const Network& net, Vertex centre,
                         const std::vector<graph::Edge>& known, int radius) {
  // Build the known graph on global indices, then BFS from the centre.
  graph::GraphBuilder b(net.num_nodes());
  for (const graph::Edge& e : known) b.add_edge(e.u, e.v);
  const Graph known_graph = b.build();
  const auto dist = graph::bfs_distances(known_graph, centre);

  std::vector<Vertex> ball;
  for (Vertex v = 0; v < net.num_nodes(); ++v) {
    const int d = dist[static_cast<std::size_t>(v)];
    if (d >= 0 && d <= radius) ball.push_back(v);
  }
  const auto sub = graph::induced_subgraph(known_graph, ball);

  BallView view;
  view.graph = sub.graph;
  view.radius = radius;
  view.ids.reserve(ball.size());
  view.dist.reserve(ball.size());
  for (Vertex local = 0; local < sub.graph.num_vertices(); ++local) {
    const Vertex global = sub.to_parent[static_cast<std::size_t>(local)];
    view.ids.push_back(net.id_of(global));
    view.dist.push_back(dist[static_cast<std::size_t>(global)]);
  }
  view.centre = sub.from_parent[static_cast<std::size_t>(centre)];
  view.build_id_index();
  return view;
}

}  // namespace

std::vector<BallView> gather_views_reference(const Network& net, int radius,
                                             TrafficStats* stats) {
  if (radius < 0) throw std::invalid_argument("gather_views: radius must be >= 0");
  TrafficStats local_stats;
  FloodingState flooding(net);
  flooding.run(radius + 1, local_stats);
  if (stats != nullptr) *stats += local_stats;

  const auto all_edges = net.topology().edges();
  std::vector<BallView> views;
  views.reserve(static_cast<std::size_t>(net.num_nodes()));
  for (Vertex v = 0; v < net.num_nodes(); ++v) {
    std::vector<graph::Edge> known;
    for (int e : flooding.known_edges(v)) known.push_back(all_edges[static_cast<std::size_t>(e)]);
    views.push_back(view_from_edges(net, v, known, radius));
  }
  return views;
}

BallView cut_view_reference(const Network& net, Vertex centre, int radius) {
  if (radius < 0) throw std::invalid_argument("cut_view: radius must be >= 0");
  return view_from_edges(net, centre, net.topology().edges(), radius);
}

}  // namespace lmds::local::detail
