#include "graph/bfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace lmds::graph {

void mark_ball(const Graph& g, std::span<const Vertex> sources, int r, BfsScratch& scratch) {
  mark_ball_if(g, sources, r, scratch, [](std::size_t, Vertex) { return true; });
}

void ball_of_set_into(const Graph& g, std::span<const Vertex> sources, int r,
                      BfsScratch& scratch, std::vector<Vertex>& out) {
  mark_ball(g, sources, r, scratch);
  out.assign(scratch.visited().begin(), scratch.visited().end());
  std::sort(out.begin(), out.end());
}

std::vector<int> bfs_distances(const Graph& g, Vertex src) {
  const Vertex sources[] = {src};
  return bfs_distances_multi(g, sources);
}

std::vector<int> bfs_distances_multi(const Graph& g, std::span<const Vertex> sources) {
  BfsScratch scratch;
  mark_ball(g, sources, -1, scratch);
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  for (Vertex v : scratch.visited()) dist[static_cast<std::size_t>(v)] = scratch.dist(v);
  return dist;
}

std::vector<Vertex> ball(const Graph& g, Vertex v, int r) {
  const Vertex sources[] = {v};
  return ball_of_set(g, sources, r);
}

std::vector<Vertex> ball_of_set(const Graph& g, std::span<const Vertex> sources, int r) {
  BfsScratch scratch;
  std::vector<Vertex> out;
  ball_of_set_into(g, sources, r, scratch, out);
  return out;
}

std::vector<std::vector<Vertex>> Components::groups() const {
  std::vector<std::vector<Vertex>> result(static_cast<std::size_t>(count));
  for (Vertex v = 0; v < static_cast<Vertex>(component.size()); ++v) {
    const int c = component[static_cast<std::size_t>(v)];
    if (c >= 0) result[static_cast<std::size_t>(c)].push_back(v);
  }
  return result;
}

Components connected_components(const Graph& g) { return components_without(g, {}); }

Components components_without(const Graph& g, std::span<const Vertex> removed) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  Components result;
  // -2 marks a removed vertex until the end; -1 is "alive, not yet reached".
  result.component.assign(n, -1);
  for (Vertex v : removed) {
    if (!g.has_vertex(v)) throw std::invalid_argument("components_without: vertex out of range");
    result.component[static_cast<std::size_t>(v)] = -2;
  }
  const auto alive = [&](std::size_t, Vertex w) {
    return result.component[static_cast<std::size_t>(w)] != -2;
  };
  BfsScratch scratch;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (result.component[static_cast<std::size_t>(s)] != -1) continue;
    const Vertex sources[] = {s};
    mark_ball_if(g, sources, -1, scratch, alive);
    for (Vertex v : scratch.visited()) result.component[static_cast<std::size_t>(v)] = result.count;
    ++result.count;
  }
  for (int& c : result.component) c = std::max(c, -1);
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).count == 1;
}

namespace {

// Eccentricity of v by one traversal in the caller's scratch; -1 when it
// misses a vertex of g. The visit list is in BFS order, so its last entry
// is the farthest.
int eccentricity_in(const Graph& g, Vertex v, BfsScratch& scratch) {
  const Vertex sources[] = {v};
  mark_ball(g, sources, -1, scratch);
  if (scratch.visited().size() != static_cast<std::size_t>(g.num_vertices())) return -1;
  return scratch.dist(scratch.visited().back());
}

}  // namespace

int eccentricity(const Graph& g, Vertex v) {
  BfsScratch scratch;
  return eccentricity_in(g, v, scratch);
}

int diameter(const Graph& g) {
  BfsScratch scratch;
  int diam = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const int ecc = eccentricity_in(g, v, scratch);
    if (ecc == -1) return -1;
    diam = std::max(diam, ecc);
  }
  return diam;
}

int weak_diameter(const Graph& g, std::span<const Vertex> s) {
  for (Vertex u : s) {
    if (!g.has_vertex(u)) throw std::invalid_argument("weak_diameter: vertex out of range");
  }
  BfsScratch scratch;
  int result = 0;
  for (Vertex v : s) {
    const Vertex sources[] = {v};
    mark_ball(g, sources, -1, scratch);
    for (Vertex u : s) {
      if (!scratch.seen(u)) return -1;
      result = std::max(result, scratch.dist(u));
    }
  }
  return result;
}

int distance(const Graph& g, Vertex u, Vertex v) {
  if (!g.has_vertex(v)) throw std::invalid_argument("distance: vertex out of range");
  BfsScratch scratch;
  const Vertex sources[] = {u};
  mark_ball(g, sources, -1, scratch);
  return scratch.seen(v) ? scratch.dist(v) : -1;
}

}  // namespace lmds::graph
