#include "support/split_pairs.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "support/global_cuts.hpp"

namespace lmds::spqr {

bool cuts_cross(const Graph& g, cuts::VertexPair c1, cuts::VertexPair c2) {
  if (c1.u == c2.u || c1.u == c2.v || c1.v == c2.u || c1.v == c2.v) return false;
  const auto separated_by = [&](cuts::VertexPair cut, cuts::VertexPair probe) {
    const Vertex removed[] = {cut.u, cut.v};
    const auto comps = graph::components_without(g, removed);
    const int cu = comps.component[static_cast<std::size_t>(probe.u)];
    const int cv = comps.component[static_cast<std::size_t>(probe.v)];
    return cu != cv;
  };
  return separated_by(c2, c1) && separated_by(c1, c2);
}

std::vector<cuts::VertexPair> split_pairs(const Graph& g) {
  std::vector<cuts::VertexPair> result = cuts::minimal_two_cuts(g);
  for (const graph::Edge e : g.edges()) {
    const cuts::VertexPair p = cuts::make_pair_sorted(e.u, e.v);
    if (!cuts::is_minimal_two_cut(g, p.u, p.v)) result.push_back(p);
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace lmds::spqr
