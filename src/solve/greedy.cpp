#include "solve/greedy.hpp"

#include <algorithm>
#include <cstdint>

namespace lmds::solve {

std::vector<Vertex> greedy_mds(const Graph& g) {
  // gain[v] = |N[v] ∩ undominated|, kept exact: a vertex turning dominated
  // lowers the gain of each member of its closed neighbourhood by one. The
  // heap holds one entry per vertex keyed (gain, -id), pushed with the gain
  // it had then. Gains only fall, so no entry is below its vertex's gain,
  // and a popped entry whose gain is still current is the pick the full
  // rescan makes: the lowest id among the vertices of maximum gain. A stale
  // entry goes back with its current gain, or is dropped at gain 0.
  const int n = g.num_vertices();
  std::vector<int> gain(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> heap(static_cast<std::size_t>(n));
  const auto key = [](int gain_v, Vertex v) {
    return (static_cast<std::uint64_t>(gain_v) << 32) |
           (0xFFFF'FFFFu - static_cast<std::uint32_t>(v));
  };
  for (Vertex v = 0; v < n; ++v) {
    gain[static_cast<std::size_t>(v)] = g.degree(v) + 1;
    heap[static_cast<std::size_t>(v)] = key(g.degree(v) + 1, v);
  }
  std::make_heap(heap.begin(), heap.end());
  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  const auto dominate = [&](Vertex w) {
    if (dominated[static_cast<std::size_t>(w)]) return 0;
    dominated[static_cast<std::size_t>(w)] = 1;
    --gain[static_cast<std::size_t>(w)];
    for (Vertex x : g.neighbors(w)) --gain[static_cast<std::size_t>(x)];
    return 1;
  };
  int remaining = n;
  std::vector<Vertex> result;
  while (remaining > 0) {
    std::pop_heap(heap.begin(), heap.end());
    const std::uint64_t top = heap.back();
    heap.pop_back();
    const auto v = static_cast<Vertex>(0xFFFF'FFFFu - static_cast<std::uint32_t>(top));
    const int current = gain[static_cast<std::size_t>(v)];
    if (static_cast<int>(top >> 32) != current) {
      if (current > 0) {
        heap.push_back(key(current, v));
        std::push_heap(heap.begin(), heap.end());
      }
      continue;
    }
    result.push_back(v);
    remaining -= dominate(v);
    for (Vertex w : g.neighbors(v)) remaining -= dominate(w);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<Vertex> greedy_mvc(const Graph& g) {
  std::vector<char> matched(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Vertex> cover;
  for (const graph::Edge e : g.edges()) {
    if (!matched[static_cast<std::size_t>(e.u)] && !matched[static_cast<std::size_t>(e.v)]) {
      matched[static_cast<std::size_t>(e.u)] = 1;
      matched[static_cast<std::size_t>(e.v)] = 1;
      cover.push_back(e.u);
      cover.push_back(e.v);
    }
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

}  // namespace lmds::solve
