#include "cuts/interesting.hpp"

#include <stdexcept>

#include "cuts/local_cuts.hpp"

namespace lmds::cuts {

namespace {

// v is interesting with partner u, given the kernel's verdict on {u, v}:
// the pair is a minimal 2-cut, (1) N[v] ⊄ N[u], and (2) holds. r >= 1 puts
// N[u] and N[v] inside the ball, so (1) reads from g itself.
bool certifies(const Graph& g, const PairCut& cut, Vertex v, Vertex u) {
  return cut.minimal && cut.spread_u && !g.closed_neighborhood_contained(v, u);
}

}  // namespace

bool certifies_interesting(const Graph& g, Vertex v, Vertex u, int r) {
  if (u == v) return false;
  if (!g.has_vertex(u) || !g.has_vertex(v)) throw std::invalid_argument("certifies_interesting: bad vertex");
  if (r < 1) return false;
  LocalCutKernel kernel;
  return kernel.within(g, u, v, r) && certifies(g, kernel.pair(g, u, v, r), v, u);
}

bool is_interesting(const Graph& g, Vertex v, int r) {
  if (!g.has_vertex(v)) throw std::invalid_argument("is_interesting: bad vertex");
  if (r < 1) return false;
  LocalCutKernel kernel;
  PairFilter filter(g);
  for (Vertex u : filter.partners(v, r)) {
    // Condition (1) first: it costs no traversal.
    if (g.closed_neighborhood_contained(v, u) || !filter.links_split(u, v)) continue;
    if (certifies(g, kernel.pair(g, u, v, r), v, u)) return true;
  }
  return false;
}

bool in_local_two_cut(const Graph& g, Vertex v, int r) {
  if (r < 1) throw std::invalid_argument("local cuts: radius must be >= 1");
  if (!g.has_vertex(v)) throw std::invalid_argument("in_local_two_cut: bad vertex");
  LocalCutKernel kernel;
  PairFilter filter(g);
  for (Vertex u : filter.partners(v, r)) {
    if (filter.links_split(u, v) && kernel.pair(g, u, v, r).minimal) return true;
  }
  return false;
}

std::vector<Vertex> interesting_vertices(const Graph& g, int r) {
  if (r < 1) return {};
  LocalCutKernel kernel;
  PairFilter filter(g);
  std::vector<char> selected(static_cast<std::size_t>(g.num_vertices()), 0);
  const auto is_selected = [&](Vertex x) { return selected[static_cast<std::size_t>(x)] != 0; };
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    // Each unordered pair once (u > v, a partner of v, so d(u, v) <= r);
    // one pass decides both orientations. An end that is already selected,
    // or whose condition (1) fails, needs nothing from the pair.
    for (Vertex u : filter.partners(v, r)) {
      if (u <= v) continue;
      const bool want_v = !is_selected(v) && !g.closed_neighborhood_contained(v, u);
      const bool want_u = !is_selected(u) && !g.closed_neighborhood_contained(u, v);
      if ((!want_v && !want_u) || !filter.links_split(u, v)) continue;
      const PairCut cut = kernel.pair(g, u, v, r);
      if (!cut.minimal) continue;
      if (want_v && cut.spread_u) selected[static_cast<std::size_t>(v)] = 1;
      if (want_u && cut.spread_v) selected[static_cast<std::size_t>(u)] = 1;
    }
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_selected(v)) result.push_back(v);
  }
  return result;
}

}  // namespace lmds::cuts
