#include "cuts/block_cut.hpp"

#include <algorithm>
#include <stack>

namespace lmds::cuts {

std::vector<std::vector<Vertex>> biconnected_blocks(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<std::vector<Vertex>> blocks;
  std::vector<int> disc(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> parent(static_cast<std::size_t>(n), graph::kNoVertex);
  std::vector<std::size_t> next_child(static_cast<std::size_t>(n), 0);
  std::vector<graph::Edge> edge_stack;
  int timer = 0;

  for (Vertex root = 0; root < n; ++root) {
    if (disc[static_cast<std::size_t>(root)] != -1) continue;
    if (g.degree(root) == 0) {
      // Isolated vertex: its own trivial block.
      blocks.push_back({root});
      disc[static_cast<std::size_t>(root)] = timer++;
      continue;
    }
    std::stack<Vertex> stack;
    stack.push(root);
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = timer++;
    while (!stack.empty()) {
      const Vertex u = stack.top();
      const auto nb = g.neighbors(u);
      if (next_child[static_cast<std::size_t>(u)] < nb.size()) {
        const Vertex w = nb[next_child[static_cast<std::size_t>(u)]++];
        if (disc[static_cast<std::size_t>(w)] == -1) {
          parent[static_cast<std::size_t>(w)] = u;
          edge_stack.push_back({u, w});
          disc[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] = timer++;
          stack.push(w);
        } else if (w != parent[static_cast<std::size_t>(u)] &&
                   disc[static_cast<std::size_t>(w)] < disc[static_cast<std::size_t>(u)]) {
          edge_stack.push_back({u, w});
          low[static_cast<std::size_t>(u)] =
              std::min(low[static_cast<std::size_t>(u)], disc[static_cast<std::size_t>(w)]);
        }
      } else {
        stack.pop();
        if (stack.empty()) break;
        const Vertex p = stack.top();
        low[static_cast<std::size_t>(p)] =
            std::min(low[static_cast<std::size_t>(p)], low[static_cast<std::size_t>(u)]);
        if (low[static_cast<std::size_t>(u)] >= disc[static_cast<std::size_t>(p)]) {
          // p closes a biconnected component: pop edges up to and incl. (p,u).
          std::vector<Vertex> block_vertices;
          while (!edge_stack.empty()) {
            const graph::Edge e = edge_stack.back();
            edge_stack.pop_back();
            block_vertices.push_back(e.u);
            block_vertices.push_back(e.v);
            if ((e.u == p && e.v == u) || (e.u == u && e.v == p)) break;
          }
          std::sort(block_vertices.begin(), block_vertices.end());
          block_vertices.erase(std::unique(block_vertices.begin(), block_vertices.end()),
                               block_vertices.end());
          blocks.push_back(std::move(block_vertices));
        }
      }
    }
  }
  return blocks;
}

}  // namespace lmds::cuts
