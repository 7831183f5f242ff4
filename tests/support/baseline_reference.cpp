#include "support/baseline_reference.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "graph/bfs.hpp"
#include "solve/exact_mds.hpp"

namespace lmds::solve::detail {

using graph::Graph;
using graph::Vertex;

std::vector<Vertex> greedy_mds_reference(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  int remaining = n;
  std::vector<Vertex> result;
  while (remaining > 0) {
    Vertex best = graph::kNoVertex;
    int best_gain = 0;
    for (Vertex v = 0; v < n; ++v) {
      int gain = dominated[static_cast<std::size_t>(v)] ? 0 : 1;
      for (Vertex w : g.neighbors(v)) {
        if (!dominated[static_cast<std::size_t>(w)]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    result.push_back(best);
    if (!dominated[static_cast<std::size_t>(best)]) {
      dominated[static_cast<std::size_t>(best)] = 1;
      --remaining;
    }
    for (Vertex w : g.neighbors(best)) {
      if (!dominated[static_cast<std::size_t>(w)]) {
        dominated[static_cast<std::size_t>(w)] = 1;
        --remaining;
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace lmds::solve::detail

namespace lmds::core::detail {

using graph::Graph;
using graph::Vertex;

int gamma_reference(const Graph& g, Vertex v, int cap) {
  // Minimum number of vertices != v covering N[v]: a tiny set-cover over
  // candidates N^2[v] \ {v}, solved exactly and uncapped, then clamped.
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

std::vector<Vertex> ksv_style_reference(const Graph& g, int k, int threads) {
  const int n = g.num_vertices();
  // gamma dominates the runtime (a tiny set-cover per vertex), and each call
  // touches only its own ball.
  const std::vector<Vertex> x = common::parallel_select(
      n, threads, [&](Vertex v) { return gamma_reference(g, v, k) > k; });

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

}  // namespace lmds::core::detail
