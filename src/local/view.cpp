#include "local/view.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "common/parallel.hpp"

namespace lmds::local {

Vertex BallView::local_index_of(NodeId id) const {
  if (id_order.size() == ids.size() && !id_order.empty()) {
    const auto it = std::lower_bound(
        id_order.begin(), id_order.end(), id,
        [&](Vertex v, NodeId target) { return ids[static_cast<std::size_t>(v)] < target; });
    if (it != id_order.end() && ids[static_cast<std::size_t>(*it)] == id) return *it;
    return graph::kNoVertex;
  }
  // Hand-assembled view without an index: linear scan, as before.
  for (Vertex v = 0; v < num_vertices(); ++v) {
    if (ids[static_cast<std::size_t>(v)] == id) return v;
  }
  return graph::kNoVertex;
}

void BallView::build_id_index() {
  id_order.resize(ids.size());
  std::iota(id_order.begin(), id_order.end(), Vertex{0});
  std::sort(id_order.begin(), id_order.end(), [&](Vertex a, Vertex b) {
    return ids[static_cast<std::size_t>(a)] < ids[static_cast<std::size_t>(b)];
  });
}

std::vector<Vertex> BallView::inner_ball(int k) const {
  std::vector<Vertex> result;
  for (Vertex v = 0; v < num_vertices(); ++v) {
    if (dist[static_cast<std::size_t>(v)] <= k) result.push_back(v);
  }
  return result;
}

namespace detail {

std::vector<int> edge_ids_per_slot(const Graph& g) {
  std::vector<int> ids(static_cast<std::size_t>(g.num_edges()) * 2);
  int next_id = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    const std::size_t base = g.adjacency_offset(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const Vertex w = nb[j];
      if (u < w) {
        // Rows are visited in ascending u and are sorted, so u < w slots are
        // met in exactly g.edges() order: sequential ids match edge indices.
        ids[base + j] = next_id++;
      } else {
        // The mirror slot in w's row (w < u) was assigned on an earlier row.
        const auto wn = g.neighbors(w);
        const std::size_t pos =
            static_cast<std::size_t>(std::lower_bound(wn.begin(), wn.end(), u) - wn.begin());
        ids[base + j] = ids[g.adjacency_offset(w) + pos];
      }
    }
  }
  return ids;
}

}  // namespace detail

namespace {

// The CSR-native extraction core. Radius-capped BFS from `centre` over the
// topology CSR — when `knowledge` is given, a slot is traversable only if
// the centre has heard of its edge (slot_ids maps CSR slots to flooding edge
// indices), which keeps a view to delivered edges only — then the sorted
// ball is relabelled monotonically straight into the view's CSR arrays.
// Monotone relabelling keeps every row sorted, so the trusted constructor's
// invariants hold by construction, and the result is bit-identical to the
// seed's induced_subgraph-based extraction.
BallView extract_view(const Network& net, Vertex centre, int radius,
                      const FloodingState* knowledge, std::span<const int> slot_ids,
                      ViewScratch& s) {
  const Graph& g = net.topology();
  graph::BfsScratch& bfs = s.bfs;
  const auto known = [&](std::size_t slot, Vertex) {
    return knowledge == nullptr || knowledge->knows_edge(centre, slot_ids[slot]);
  };
  const Vertex sources[] = {centre};
  graph::mark_ball_if(g, sources, radius, bfs, known);

  s.ball.assign(bfs.visited().begin(), bfs.visited().end());
  std::sort(s.ball.begin(), s.ball.end());
  const std::size_t k = s.ball.size();
  if (s.local_of.size() < static_cast<std::size_t>(g.num_vertices())) {
    s.local_of.resize(static_cast<std::size_t>(g.num_vertices()));
  }
  for (std::size_t i = 0; i < k; ++i) {
    s.local_of[static_cast<std::size_t>(s.ball[i])] = static_cast<Vertex>(i);
  }

  // A slot {u, w} enters the view iff w is in the ball (== visited: the BFS
  // is capped at the view radius) and the centre knows the edge — exactly
  // the edge set of induced_subgraph(known graph, ball).
  std::vector<std::size_t> offsets(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const Vertex u = s.ball[i];
    const auto nb = g.neighbors(u);
    const std::size_t base = g.adjacency_offset(u);
    std::size_t deg = 0;
    for (std::size_t j = 0; j < nb.size(); ++j) {
      if (bfs.seen(nb[j]) && known(base + j, nb[j])) ++deg;
    }
    offsets[i + 1] = offsets[i] + deg;
  }
  std::vector<Vertex> neighbors(offsets.back());
  for (std::size_t i = 0; i < k; ++i) {
    const Vertex u = s.ball[i];
    const auto nb = g.neighbors(u);
    const std::size_t base = g.adjacency_offset(u);
    Vertex* out = neighbors.data() + offsets[i];
    for (std::size_t j = 0; j < nb.size(); ++j) {
      if (bfs.seen(nb[j]) && known(base + j, nb[j])) {
        *out++ = s.local_of[static_cast<std::size_t>(nb[j])];
      }
    }
  }

  BallView view;
  view.graph = graph::detail::TrustedCsr::build(std::move(offsets), std::move(neighbors));
  view.radius = radius;
  view.ids.reserve(k);
  view.dist.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    view.ids.push_back(net.id_of(s.ball[i]));
    view.dist.push_back(bfs.dist(s.ball[i]));
  }
  view.centre = s.local_of[static_cast<std::size_t>(centre)];
  view.build_id_index();
  return view;
}

}  // namespace

std::vector<BallView> gather_views(const Network& net, int radius, TrafficStats* stats,
                                   int threads) {
  if (radius < 0) throw std::invalid_argument("gather_views: radius must be >= 0");
  TrafficStats local_stats;
  FloodingState flooding(net);
  // r+1 rounds deliver every edge with an endpoint at distance <= r, a
  // superset of E(G[N^r[v]]); extraction trims to the exact ball.
  flooding.run(radius + 1, local_stats);
  if (stats != nullptr) *stats += local_stats;

  const std::vector<int> slot_ids = detail::edge_ids_per_slot(net.topology());
  const int n = net.num_nodes();
  std::vector<BallView> views(static_cast<std::size_t>(n));
  common::parallel_for(n, threads, [&](int begin, int end) {
    ViewScratch scratch;
    for (Vertex v = begin; v < end; ++v) {
      views[static_cast<std::size_t>(v)] =
          extract_view(net, v, radius, &flooding, slot_ids, scratch);
    }
  });
  return views;
}

BallView cut_view(const Network& net, Vertex centre, int radius) {
  ViewScratch scratch;
  return cut_view_into(net, centre, radius, scratch);
}

BallView cut_view_into(const Network& net, Vertex centre, int radius, ViewScratch& scratch) {
  if (radius < 0) throw std::invalid_argument("cut_view: radius must be >= 0");
  return extract_view(net, centre, radius, nullptr, {}, scratch);
}

std::vector<BallView> cut_views(const Network& net, int radius, int threads) {
  if (radius < 0) throw std::invalid_argument("cut_views: radius must be >= 0");
  const int n = net.num_nodes();
  std::vector<BallView> views(static_cast<std::size_t>(n));
  common::parallel_for(n, threads, [&](int begin, int end) {
    ViewScratch scratch;
    for (Vertex v = begin; v < end; ++v) {
      views[static_cast<std::size_t>(v)] = extract_view(net, v, radius, nullptr, {}, scratch);
    }
  });
  return views;
}

}  // namespace lmds::local
