#include "support/spqr_tree.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace lmds::spqr {

namespace {

// Multigraph edge during decomposition. vid >= 0 pairs the two copies of a
// virtual edge across the split.
struct MEdge {
  Vertex u, v;
  int vid;  // -1 for real edges
};

struct Builder {
  std::vector<SpqrNode> nodes;
  std::vector<std::vector<int>> node_vids;  // per node, vid of each edge (-1 real)
  int next_vid = 0;

  std::vector<Vertex> vertex_set(const std::vector<MEdge>& edges) const {
    std::set<Vertex> vs;
    for (const MEdge& e : edges) {
      vs.insert(e.u);
      vs.insert(e.v);
    }
    return {vs.begin(), vs.end()};
  }

  void emit(NodeType type, const std::vector<MEdge>& edges, std::vector<Vertex> cycle_order) {
    SpqrNode node;
    node.type = type;
    node.vertices = vertex_set(edges);
    node.cycle_order = std::move(cycle_order);
    std::vector<int> vids;
    for (const MEdge& e : edges) {
      node.edges.push_back({e.u, e.v, e.vid >= 0, -1});
      vids.push_back(e.vid);
    }
    nodes.push_back(std::move(node));
    node_vids.push_back(std::move(vids));
  }

  // Groups of a candidate split pair: one group per connected component of
  // H - {u, v} (its edges plus the pole edges into it), plus one singleton
  // group per direct u-v edge.
  std::vector<std::vector<MEdge>> groups_of(const std::vector<MEdge>& edges, Vertex u,
                                            Vertex v) const {
    // Union-find over non-pole vertices.
    std::map<Vertex, Vertex> parent;
    const std::function<Vertex(Vertex)> find = [&](Vertex x) {
      auto it = parent.find(x);
      if (it == parent.end() || it->second == x) return x;
      return it->second = find(it->second);
    };
    const auto unite = [&](Vertex a, Vertex b) {
      parent.emplace(a, a);
      parent.emplace(b, b);
      parent[find(a)] = find(b);
    };
    for (const MEdge& e : edges) {
      const bool pu = e.u == u || e.u == v;
      const bool pv = e.v == u || e.v == v;
      if (!pu && !pv) unite(e.u, e.v);
    }
    std::map<Vertex, std::vector<MEdge>> component_group;
    std::vector<std::vector<MEdge>> direct;
    for (const MEdge& e : edges) {
      const bool pu = e.u == u || e.u == v;
      const bool pv = e.v == u || e.v == v;
      if (pu && pv) {
        direct.push_back({e});
      } else {
        const Vertex anchor = find(pu ? e.v : e.u);
        component_group[anchor].push_back(e);
      }
    }
    std::vector<std::vector<MEdge>> result;
    for (auto& [anchor, group] : component_group) result.push_back(std::move(group));
    for (auto& g : direct) result.push_back(std::move(g));
    return result;
  }

  void decompose(std::vector<MEdge> edges) {
    const auto vs = vertex_set(edges);

    if (vs.size() == 2) {
      emit(NodeType::kP, edges, {});
      return;
    }

    // Cycle check: no parallel edges and every vertex of degree exactly 2.
    {
      std::map<Vertex, std::vector<std::pair<Vertex, std::size_t>>> adj;
      std::set<std::pair<Vertex, Vertex>> seen;
      bool parallel = false;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto key = std::minmax(edges[i].u, edges[i].v);
        if (!seen.insert({key.first, key.second}).second) parallel = true;
        adj[edges[i].u].push_back({edges[i].v, i});
        adj[edges[i].v].push_back({edges[i].u, i});
      }
      bool all_degree_two = !parallel;
      if (all_degree_two) {
        for (const auto& [vertex, nb] : adj) {
          if (nb.size() != 2) {
            all_degree_two = false;
            break;
          }
        }
      }
      if (all_degree_two && edges.size() == vs.size()) {
        // Walk the cycle to record the order.
        std::vector<Vertex> order;
        Vertex start = vs.front();
        Vertex prev = graph::kNoVertex;
        Vertex cur = start;
        do {
          order.push_back(cur);
          const auto& nb = adj[cur];
          const Vertex next = (nb[0].first != prev) ? nb[0].first : nb[1].first;
          prev = cur;
          cur = next;
        } while (cur != start);
        emit(NodeType::kS, edges, std::move(order));
        return;
      }
    }

    // Look for a split pair.
    for (std::size_t a = 0; a < vs.size(); ++a) {
      for (std::size_t b = a + 1; b < vs.size(); ++b) {
        const Vertex u = vs[a];
        const Vertex v = vs[b];
        auto groups = groups_of(edges, u, v);
        const bool valid =
            groups.size() >= 3 ||
            (groups.size() == 2 && groups[0].size() >= 2 && groups[1].size() >= 2);
        if (!valid) continue;

        if (groups.size() == 2) {
          const int vid = next_vid++;
          groups[0].push_back({u, v, vid});
          groups[1].push_back({u, v, vid});
          decompose(std::move(groups[0]));
          decompose(std::move(groups[1]));
          return;
        }
        // >= 3 groups: a P hub with one virtual edge per component group and
        // the direct pole edges kept as-is.
        std::vector<MEdge> hub_edges;
        for (auto& group : groups) {
          const bool is_direct =
              group.size() == 1 && (group[0].u == u || group[0].u == v) &&
              (group[0].v == u || group[0].v == v);
          if (is_direct) {
            hub_edges.push_back(group[0]);
            continue;
          }
          const int vid = next_vid++;
          hub_edges.push_back({u, v, vid});
          group.push_back({u, v, vid});
          decompose(std::move(group));
        }
        emit(NodeType::kP, hub_edges, {});
        return;
      }
    }

    // Triconnected: R node.
    emit(NodeType::kR, edges, {});
  }
};

}  // namespace

std::vector<int> SpqrTree::nodes_of_type(NodeType type) const {
  std::vector<int> result;
  for (int i = 0; i < num_nodes(); ++i) {
    if (nodes[static_cast<std::size_t>(i)].type == type) result.push_back(i);
  }
  return result;
}

SpqrTree spqr_tree(const Graph& g) {
  if (g.num_vertices() < 3) throw std::invalid_argument("spqr_tree: need >= 3 vertices");
  {
    // 2-connectivity precondition.
    if (!graph::is_connected(g)) throw std::invalid_argument("spqr_tree: graph not connected");
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const Vertex removed[] = {v};
      if (graph::components_without(g, removed).count > 1) {
        throw std::invalid_argument("spqr_tree: graph not 2-connected");
      }
    }
  }

  Builder builder;
  std::vector<MEdge> edges;
  for (const graph::Edge e : g.edges()) edges.push_back({e.u, e.v, -1});
  builder.decompose(std::move(edges));

  // Canonicalisation: merge adjacent S-S and P-P nodes (the 2-way split can
  // carve one series chain into several S pieces).
  {
    std::vector<char> dead(builder.nodes.size(), 0);
    bool merged = true;
    while (merged) {
      merged = false;
      // vid -> list of (node, edge index) among live nodes.
      std::map<int, std::vector<std::pair<int, int>>> twins;
      for (int n = 0; n < static_cast<int>(builder.nodes.size()); ++n) {
        if (dead[static_cast<std::size_t>(n)]) continue;
        const auto& vids = builder.node_vids[static_cast<std::size_t>(n)];
        for (int e = 0; e < static_cast<int>(vids.size()); ++e) {
          if (vids[static_cast<std::size_t>(e)] >= 0) {
            twins[vids[static_cast<std::size_t>(e)]].push_back({n, e});
          }
        }
      }
      for (const auto& [vid, ends] : twins) {
        if (ends.size() != 2) continue;
        const auto [n1, e1] = ends[0];
        const auto [n2, e2] = ends[1];
        if (n1 == n2) continue;
        SpqrNode& a = builder.nodes[static_cast<std::size_t>(n1)];
        SpqrNode& b = builder.nodes[static_cast<std::size_t>(n2)];
        if (a.type != b.type || a.type == NodeType::kR) continue;

        // Merge b into a, dropping the twin virtual edges.
        std::vector<SkeletonEdge> new_edges;
        std::vector<int> new_vids;
        for (int e = 0; e < static_cast<int>(a.edges.size()); ++e) {
          if (e == e1) continue;
          new_edges.push_back(a.edges[static_cast<std::size_t>(e)]);
          new_vids.push_back(builder.node_vids[static_cast<std::size_t>(n1)][static_cast<std::size_t>(e)]);
        }
        for (int e = 0; e < static_cast<int>(b.edges.size()); ++e) {
          if (e == e2) continue;
          new_edges.push_back(b.edges[static_cast<std::size_t>(e)]);
          new_vids.push_back(builder.node_vids[static_cast<std::size_t>(n2)][static_cast<std::size_t>(e)]);
        }
        a.edges = std::move(new_edges);
        builder.node_vids[static_cast<std::size_t>(n1)] = std::move(new_vids);
        {
          std::set<Vertex> vs;
          for (const SkeletonEdge& e : a.edges) {
            vs.insert(e.u);
            vs.insert(e.v);
          }
          a.vertices.assign(vs.begin(), vs.end());
        }
        if (a.type == NodeType::kS) {
          // Re-walk the merged cycle.
          std::map<Vertex, std::vector<Vertex>> adj;
          for (const SkeletonEdge& e : a.edges) {
            adj[e.u].push_back(e.v);
            adj[e.v].push_back(e.u);
          }
          std::vector<Vertex> order;
          const Vertex start = a.vertices.front();
          Vertex prev = graph::kNoVertex;
          Vertex cur = start;
          do {
            order.push_back(cur);
            const auto& nb = adj[cur];
            const Vertex next = (nb[0] != prev) ? nb[0] : nb[1];
            prev = cur;
            cur = next;
          } while (cur != start);
          a.cycle_order = std::move(order);
        }
        dead[static_cast<std::size_t>(n2)] = 1;
        merged = true;
        break;
      }
    }
    // Compact live nodes.
    std::vector<SpqrNode> live_nodes;
    std::vector<std::vector<int>> live_vids;
    for (std::size_t n = 0; n < builder.nodes.size(); ++n) {
      if (dead[n]) continue;
      live_nodes.push_back(std::move(builder.nodes[n]));
      live_vids.push_back(std::move(builder.node_vids[n]));
    }
    builder.nodes = std::move(live_nodes);
    builder.node_vids = std::move(live_vids);
  }

  SpqrTree tree;
  tree.nodes = std::move(builder.nodes);

  // Pair up virtual twins: vid -> (node, edge index).
  std::map<int, std::vector<std::pair<int, int>>> twins;
  for (int n = 0; n < tree.num_nodes(); ++n) {
    const auto& vids = builder.node_vids[static_cast<std::size_t>(n)];
    for (int e = 0; e < static_cast<int>(vids.size()); ++e) {
      if (vids[static_cast<std::size_t>(e)] >= 0) {
        twins[vids[static_cast<std::size_t>(e)]].push_back({n, e});
      }
    }
  }
  for (const auto& [vid, ends] : twins) {
    if (ends.size() != 2) throw std::logic_error("spqr_tree: unmatched virtual edge");
    const auto [n1, e1] = ends[0];
    const auto [n2, e2] = ends[1];
    tree.nodes[static_cast<std::size_t>(n1)].edges[static_cast<std::size_t>(e1)].peer = n2;
    tree.nodes[static_cast<std::size_t>(n2)].edges[static_cast<std::size_t>(e2)].peer = n1;
    tree.tree_edges.push_back({std::min(n1, n2), std::max(n1, n2)});
  }
  std::sort(tree.tree_edges.begin(), tree.tree_edges.end());
  return tree;
}

std::vector<cuts::VertexPair> displayed_pairs(const SpqrTree& tree) {
  std::set<cuts::VertexPair> pairs;
  for (const SpqrNode& node : tree.nodes) {
    if (node.type == NodeType::kP) {
      int virtual_count = 0;
      for (const SkeletonEdge& e : node.edges) virtual_count += e.is_virtual ? 1 : 0;
      if (virtual_count >= 2) {
        pairs.insert(cuts::make_pair_sorted(node.vertices[0], node.vertices[1]));
      }
      continue;
    }
    // R and S nodes: virtual edge endpoints.
    for (const SkeletonEdge& e : node.edges) {
      if (e.is_virtual) pairs.insert(cuts::make_pair_sorted(e.u, e.v));
    }
    // S nodes: all non-adjacent cycle pairs.
    if (node.type == NodeType::kS) {
      const auto& order = node.cycle_order;
      const int k = static_cast<int>(order.size());
      for (int i = 0; i < k; ++i) {
        for (int j = i + 2; j < k; ++j) {
          if (i == 0 && j == k - 1) continue;  // adjacent around the cycle
          pairs.insert(cuts::make_pair_sorted(order[static_cast<std::size_t>(i)],
                                              order[static_cast<std::size_t>(j)]));
        }
      }
    }
  }
  return {pairs.begin(), pairs.end()};
}

}  // namespace lmds::spqr
