#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace lmds::graph {

Graph::Graph(const std::vector<std::vector<Vertex>>& adjacency) {
  const auto n = adjacency.size();
  offsets_.assign(n + 1, 0);

  std::vector<std::vector<Vertex>> sorted(n);
  for (std::size_t v = 0; v < n; ++v) {
    sorted[v] = adjacency[v];
    std::sort(sorted[v].begin(), sorted[v].end());
    sorted[v].erase(std::unique(sorted[v].begin(), sorted[v].end()), sorted[v].end());
    for (Vertex w : sorted[v]) {
      if (w < 0 || static_cast<std::size_t>(w) >= n) {
        throw std::invalid_argument("Graph: neighbor index out of range");
      }
      if (static_cast<std::size_t>(w) == v) {
        throw std::invalid_argument("Graph: self-loop not allowed");
      }
    }
    offsets_[v + 1] = offsets_[v] + sorted[v].size();
  }

  neighbors_.reserve(offsets_[n]);
  for (std::size_t v = 0; v < n; ++v) {
    neighbors_.insert(neighbors_.end(), sorted[v].begin(), sorted[v].end());
  }

  // Enforce symmetry.
  for (std::size_t v = 0; v < n; ++v) {
    for (Vertex w : neighbors(static_cast<Vertex>(v))) {
      if (!has_edge(w, static_cast<Vertex>(v))) {
        throw std::invalid_argument("Graph: adjacency list is not symmetric");
      }
    }
  }
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (!has_vertex(u) || !has_vertex(v) || u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(static_cast<std::size_t>(num_edges()));
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (Vertex v : neighbors(u)) {
      if (u < v) result.push_back(Edge{u, v});
    }
  }
  return result;
}

std::vector<Vertex> Graph::closed_neighborhood(Vertex v) const {
  const auto nb = neighbors(v);
  std::vector<Vertex> result;
  result.reserve(nb.size() + 1);
  // Insert v in sorted position.
  auto it = std::lower_bound(nb.begin(), nb.end(), v);
  result.insert(result.end(), nb.begin(), it);
  result.push_back(v);
  result.insert(result.end(), it, nb.end());
  return result;
}

bool Graph::closed_neighborhood_contained(Vertex a, Vertex b) const {
  if (a == b) return true;
  if (!has_vertex(a) || !has_vertex(b)) return false;
  // |N[a]| <= |N[b]| is necessary.
  const auto na = neighbors(a);
  const auto nb = neighbors(b);
  if (na.size() > nb.size()) return false;
  // One merge walk: every w ∈ N(a) \ {b} must be in N(b), and b must be in
  // N(a) (a ∈ N[b] is adjacency). Both rows are sorted, so the cursor into
  // N(b) only moves forward; a row much longer than N(a) is searched instead
  // of stepped through, so a low-degree vertex against a hub does not pay
  // for the hub's whole row.
  const bool search = nb.size() > 16 * na.size();
  bool adjacent = false;
  auto it = nb.begin();
  for (Vertex w : na) {
    if (w == b) {
      adjacent = true;
      continue;
    }
    if (search) {
      it = std::lower_bound(it, nb.end(), w);
    } else {
      while (it != nb.end() && *it < w) ++it;
    }
    if (it == nb.end() || *it != w) return false;
    ++it;
  }
  return adjacent;
}

bool Graph::true_twins(Vertex a, Vertex b) const {
  return closed_neighborhood_contained(a, b) && closed_neighborhood_contained(b, a);
}

std::string Graph::summary() const {
  return "Graph(n=" + std::to_string(num_vertices()) + ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace lmds::graph
