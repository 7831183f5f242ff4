#include "cuts/block_cut.hpp"

#include <algorithm>
#include <stack>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace lmds::cuts {

namespace {

// Iterative Tarjan lowpoint DFS producing articulation flags and biconnected
// components (as vertex sets, via an edge stack).
struct TarjanResult {
  std::vector<char> is_articulation;
  std::vector<std::vector<Vertex>> blocks;
};

TarjanResult tarjan(const Graph& g) {
  const int n = g.num_vertices();
  TarjanResult result;
  result.is_articulation.assign(static_cast<std::size_t>(n), 0);

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
      result.blocks.push_back({root});
      disc[static_cast<std::size_t>(root)] = timer++;
      continue;
    }
    int root_children = 0;
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
          if (u == root) ++root_children;
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
          result.blocks.push_back(std::move(block_vertices));
          if (p != root) result.is_articulation[static_cast<std::size_t>(p)] = 1;
        }
      }
    }
    if (root_children >= 2) result.is_articulation[static_cast<std::size_t>(root)] = 1;
  }
  return result;
}

}  // namespace

std::vector<Vertex> articulation_points(const Graph& g) {
  const TarjanResult t = tarjan(g);
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (t.is_articulation[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  return result;
}

std::vector<std::vector<Vertex>> biconnected_blocks(const Graph& g) { return tarjan(g).blocks; }

bool is_cut_vertex(const Graph& g, Vertex v) {
  const int before = graph::connected_components(g).count;
  const Vertex removed[] = {v};
  const int after = graph::components_without(g, removed).count;
  return after > before;
}

int BlockCutTree::cut_index(Vertex v) const {
  const auto it = std::lower_bound(cut_vertices.begin(), cut_vertices.end(), v);
  if (it == cut_vertices.end() || *it != v) return -1;
  return static_cast<int>(it - cut_vertices.begin());
}

std::vector<int> BlockCutTree::blocks_of(Vertex v) const {
  std::vector<int> result;
  for (int b = 0; b < num_blocks(); ++b) {
    if (std::binary_search(blocks[static_cast<std::size_t>(b)].begin(),
                           blocks[static_cast<std::size_t>(b)].end(), v)) {
      result.push_back(b);
    }
  }
  return result;
}

BlockCutTree block_cut_tree(const Graph& g) {
  const TarjanResult t = tarjan(g);
  BlockCutTree result;
  result.blocks = t.blocks;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (t.is_articulation[static_cast<std::size_t>(v)]) result.cut_vertices.push_back(v);
  }
  graph::GraphBuilder builder(result.num_blocks() + result.num_cut_vertices());
  for (int b = 0; b < result.num_blocks(); ++b) {
    for (Vertex v : result.blocks[static_cast<std::size_t>(b)]) {
      const int j = result.cut_index(v);
      if (j != -1) builder.add_edge(static_cast<Vertex>(b), result.cut_node(j));
    }
  }
  result.tree = builder.build();
  return result;
}

}  // namespace lmds::cuts
