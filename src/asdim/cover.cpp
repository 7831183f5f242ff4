#include "asdim/cover.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "graph/ops.hpp"

namespace lmds::asdim {

Cover bfs_band_cover(const Graph& g, int r) {
  if (r < 1) throw std::invalid_argument("bfs_band_cover: r >= 1 required");
  Cover cover;
  cover.r = r;
  cover.parts.assign(2, {});

  // Bands are counted from each component's smallest vertex. One BFS from
  // all of them at once: components are disjoint, so every vertex gets its
  // distance to its own component's root.
  const auto comps = graph::connected_components(g);
  std::vector<Vertex> roots;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (comps.component[static_cast<std::size_t>(v)] == static_cast<int>(roots.size())) {
      roots.push_back(v);
    }
  }
  const auto dist = graph::bfs_distances_multi(g, roots);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const int band = dist[static_cast<std::size_t>(v)] / r;
    cover.parts[static_cast<std::size_t>(band % 2)].push_back(v);
  }
  return cover;
}

CoverCheck validate_cover(const Graph& g, const Cover& cover) {
  CoverCheck check;
  std::vector<char> covered(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const auto& part : cover.parts) {
    for (Vertex v : part) covered[static_cast<std::size_t>(v)] = 1;
    for (const auto& component : graph::r_components(g, part, cover.r)) {
      ++check.num_components;
      check.max_component_weak_diameter =
          std::max(check.max_component_weak_diameter, graph::weak_diameter(g, component));
    }
  }
  check.is_cover = std::all_of(covered.begin(), covered.end(), [](char c) { return c != 0; });
  return check;
}

int measured_control(const Graph& g, int r) {
  return validate_cover(g, bfs_band_cover(g, r)).max_component_weak_diameter;
}

}  // namespace lmds::asdim
