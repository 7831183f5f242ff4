#include "core/baselines.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "solve/exact_mds.hpp"

namespace lmds::core {

std::vector<Vertex> take_all(const Graph& g) {
  std::vector<Vertex> all(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  return all;
}

std::vector<Vertex> tree_degree_rule(const Graph& g, int threads) {
  return common::parallel_select(g.num_vertices(), threads, [&](Vertex v) {
    const int deg = g.degree(v);
    if (deg >= 2 || deg == 0) return true;
    // Pendant: joins only when its single neighbour is also pendant (a K2
    // component) and v carries the smaller id.
    const Vertex u = g.neighbors(v)[0];
    return g.degree(u) == 1 && v < u;
  });
}

int gamma(const Graph& g, Vertex v, int cap) {
  // Minimum number of vertices != v covering N[v]: a tiny set-cover over
  // candidates N^2[v] \ {v}. We only need to know whether the optimum is
  // <= cap, so try increasing sizes via the exact solver with the candidate
  // pool restricted — the solver is fast at these sizes.
  const auto targets = g.closed_neighborhood(v);
  std::vector<Vertex> candidates;
  for (Vertex c : graph::ball(g, v, 2)) {
    if (c != v) candidates.push_back(c);
  }
  try {
    const auto solution = solve::exact_set_domination(g, targets, candidates);
    const int size = static_cast<int>(solution.size());
    return size <= cap ? size : cap + 1;
  } catch (const std::runtime_error&) {
    return cap + 1;  // infeasible: e.g. isolated vertex
  }
}

std::vector<Vertex> ksv_style(const Graph& g, int k, int threads) {
  const int n = g.num_vertices();
  // gamma dominates the runtime (a tiny set-cover per vertex), and each call
  // touches only its own ball.
  const std::vector<Vertex> x =
      common::parallel_select(n, threads, [&](Vertex v) { return gamma(g, v, k) > k; });

  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  for (Vertex v : x) {
    dominated[static_cast<std::size_t>(v)] = 1;
    for (Vertex w : g.neighbors(v)) dominated[static_cast<std::size_t>(w)] = 1;
  }

  // Cleanup phase: every undominated vertex nominates the member of its
  // closed neighbourhood covering the most undominated vertices (ties to the
  // smaller id) — one more round in the model. Each nominee is computed into
  // the nominator's own slot (reads of `dominated` only), then marked
  // sequentially: no write races, same set for any thread count.
  std::vector<Vertex> nominee(static_cast<std::size_t>(n), graph::kNoVertex);
  common::parallel_for(n, threads, [&](int begin, int end) {
    for (Vertex v = begin; v < end; ++v) {
      if (dominated[static_cast<std::size_t>(v)]) continue;
      Vertex best = v;
      int best_cover = -1;
      for (Vertex c : g.closed_neighborhood(v)) {
        int cover = dominated[static_cast<std::size_t>(c)] ? 0 : 1;
        for (Vertex w : g.neighbors(c)) {
          if (!dominated[static_cast<std::size_t>(w)]) ++cover;
        }
        if (cover > best_cover || (cover == best_cover && c < best)) {
          best_cover = cover;
          best = c;
        }
      }
      nominee[static_cast<std::size_t>(v)] = best;
    }
  });
  std::vector<char> nominated(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex b = nominee[static_cast<std::size_t>(v)];
    if (b != graph::kNoVertex) nominated[static_cast<std::size_t>(b)] = 1;
  }

  std::vector<Vertex> result = x;
  for (Vertex v = 0; v < n; ++v) {
    if (nominated[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace lmds::core
