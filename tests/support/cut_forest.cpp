#include "support/cut_forest.hpp"

#include <algorithm>
#include <set>

#include "graph/ops.hpp"
#include "support/global_cuts.hpp"
#include "support/split_pairs.hpp"

namespace lmds::spqr {

namespace {

using cuts::VertexPair;

void add(std::vector<VertexPair>& family, Vertex a, Vertex b) {
  family.push_back(cuts::make_pair_sorted(a, b));
}

// Greedy non-crossing completion: offers every non-adjacent skeleton pair to
// the first family it does not cross (crossing measured by interleaving on
// the skeleton cycle — a conservative over-approximation of crossing in G).
// This covers the cuts the paper's per-block case analysis misses when
// subtrees hang off cycle vertices: 1-cut attachments certify extra
// interesting pairs that only exist in the whole graph.
void greedy_completion(const std::vector<Vertex>& w, CutForest& forest) {
  const int k = static_cast<int>(w.size());
  if (k < 4 || k > 16) return;  // tiny: nothing non-adjacent; huge: capped
  const auto at = [&](int i) { return w[static_cast<std::size_t>(((i % k) + k) % k)]; };

  std::vector<VertexPair> candidates;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 2; j < k; ++j) {
      if (i == 0 && j == k - 1) continue;
      candidates.push_back(cuts::make_pair_sorted(at(i), at(j)));
    }
  }
  const auto pos_of = [&](Vertex v) {
    for (int i = 0; i < k; ++i) {
      if (at(i) == v) return i;
    }
    return -1;
  };
  const auto cross_on_cycle = [&](VertexPair x, VertexPair y) {
    const int xu = pos_of(x.u), xv = pos_of(x.v), yu = pos_of(y.u), yv = pos_of(y.v);
    if (xu < 0 || xv < 0 || yu < 0 || yv < 0) return false;  // different node
    if (xu == yu || xu == yv || xv == yu || xv == yv) return false;
    const auto inside = [&](int p, int lo, int hi) {
      return lo < p && p < hi;  // strictly inside the arc lo..hi
    };
    const int lo = std::min(xu, xv), hi = std::max(xu, xv);
    return inside(yu, lo, hi) != inside(yv, lo, hi);
  };
  for (const VertexPair c : candidates) {
    bool placed = false;
    for (auto& family : forest.families) {
      if (std::find(family.begin(), family.end(), c) != family.end()) {
        placed = true;
        break;
      }
      const bool conflict = std::any_of(family.begin(), family.end(), [&](VertexPair other) {
        return cross_on_cycle(c, other);
      });
      if (!conflict) {
        family.push_back(c);
        placed = true;
        break;
      }
    }
    (void)placed;  // a candidate crossing all three families is skipped
  }
}

// Handles one S node: cycle order w (global ids) with `virt[i]` true when
// the cycle edge (w[i], w[i+1 mod k]) is virtual. Implements the k-cases of
// §5.3 and then runs the greedy completion.
void handle_s_node(const std::vector<Vertex>& w, const std::vector<char>& virt,
                   CutForest& forest) {
  const int k = static_cast<int>(w.size());
  auto& p1 = forest.families[0];
  auto& p2 = forest.families[1];
  auto& p3 = forest.families[2];
  const auto at = [&](int i) { return w[static_cast<std::size_t>(((i % k) + k) % k)]; };

  if (k >= 8) {
    // Long cycles: nested long-range cuts in P1, two finishing cuts in P2.
    if (k % 2 == 0) {
      for (int i = 0; i <= k / 2 - 3; ++i) add(p1, at(i), at(k - 3 - i));
      add(p2, at(k / 2 - 2), at(k - 1));
      add(p2, at(k / 2 - 1), at(k - 2));
    } else {
      const int h = (k - 1) / 2;
      for (int i = 0; i <= h - 3; ++i) add(p1, at(i), at(k - 3 - i));
      add(p1, at(h - 3 >= 0 ? h - 3 : 0), at(h));
      add(p2, at(h - 2), at(k - 1));
      add(p2, at(h - 1), at(k - 2));
    }
  } else if (k == 7) {
    add(p1, at(0), at(3));
    add(p1, at(0), at(4));
    add(p2, at(1), at(5));
    add(p3, at(2), at(6));
  } else if (k == 6) {
    add(p1, at(0), at(3));
    add(p2, at(1), at(4));
    add(p3, at(2), at(5));
  } else {
    // k <= 5: driven by the virtual edge positions.
    std::vector<int> vpos;
    for (int i = 0; i < k; ++i) {
      if (virt[static_cast<std::size_t>(i)]) vpos.push_back(i);
    }
    if (vpos.size() == 1) {
      const int r = vpos[0];  // rotate the virtual edge to (v0, v1)
      if (k == 5) {
        add(p1, at(r + 0), at(r + 2));
        add(p2, at(r + 1), at(r + 4));
      }
    } else if (vpos.size() == 2) {
      const int a = vpos[0];
      const int b = vpos[1];
      const bool shared = (b == a + 1) || (a == 0 && b == k - 1);
      if (shared) {
        // Rotate so the shared vertex is v0, virtual edges v0v1 and v0v_{k-1}.
        const int r = (a == 0 && b == k - 1) ? 0 : a + 1;
        for (int i = 2; i <= k - 2; ++i) add(p1, at(r + 0), at(r + i));
        if (k == 5) add(p2, at(r + 1), at(r + k - 1));
      } else {
        // Disjoint virtual edges v0v1 and v_i v_{i+1} after rotating to a.
        const int r = a;
        const int i = b - a;  // 2 <= i <= k-2
        for (int j = 2; j <= i; ++j) add(p1, at(r + 0), at(r + j));
        for (int j = i + 1; j <= k - 1; ++j) add(p2, at(r + 1), at(r + j));
      }
    }
  }
  greedy_completion(w, forest);
}

}  // namespace

std::vector<VertexPair> CutForest::all() const {
  std::set<VertexPair> result;
  for (const auto& family : families) result.insert(family.begin(), family.end());
  return {result.begin(), result.end()};
}

CutForest interesting_cut_forest(const Graph& g) {
  // Per the paper (§5.3), a non-2-connected graph is handled block by block;
  // cuts never span blocks (a minimal 2-cut lies inside one block, and cuts
  // from different blocks cannot cross).
  const auto bct = cuts::block_cut_tree(g);
  CutForest forest;
  for (const auto& block : bct.blocks) {
    if (block.size() < 3) continue;
    const auto sub = graph::induced_subgraph(g, block);
    const CutForest block_forest = interesting_cut_forest_biconnected(sub.graph);
    for (std::size_t i = 0; i < 3; ++i) {
      for (const VertexPair p : block_forest.families[i]) {
        forest.families[i].push_back(cuts::make_pair_sorted(
            sub.to_parent[static_cast<std::size_t>(p.u)],
            sub.to_parent[static_cast<std::size_t>(p.v)]));
      }
    }
  }
  for (auto& family : forest.families) {
    std::sort(family.begin(), family.end());
    family.erase(std::unique(family.begin(), family.end()), family.end());
  }
  return forest;
}

CutForest interesting_cut_forest_biconnected(const Graph& g) {
  const SpqrTree tree = spqr_tree(g);
  CutForest forest;
  auto& p1 = forest.families[0];

  for (const SpqrNode& node : tree.nodes) {
    switch (node.type) {
      case NodeType::kR:
        for (const SkeletonEdge& e : node.edges) {
          if (e.is_virtual) add(p1, e.u, e.v);
        }
        break;
      case NodeType::kP: {
        int virtual_count = 0;
        for (const SkeletonEdge& e : node.edges) virtual_count += e.is_virtual ? 1 : 0;
        if (virtual_count >= 2) add(p1, node.vertices[0], node.vertices[1]);
        break;
      }
      case NodeType::kS: {
        // Virtual-edge pairs first (the paper: "put all {u,v} in P1 if uv is
        // a virtual edge").
        const auto& w = node.cycle_order;
        const int k = static_cast<int>(w.size());
        std::vector<char> virt(static_cast<std::size_t>(k), 0);
        for (const SkeletonEdge& e : node.edges) {
          if (!e.is_virtual) continue;
          add(p1, e.u, e.v);
          for (int i = 0; i < k; ++i) {
            const Vertex a = w[static_cast<std::size_t>(i)];
            const Vertex b = w[static_cast<std::size_t>((i + 1) % k)];
            if ((a == e.u && b == e.v) || (a == e.v && b == e.u)) {
              virt[static_cast<std::size_t>(i)] = 1;
            }
          }
        }
        handle_s_node(w, virt, forest);
        break;
      }
    }
  }

  // Deduplicate each family.
  for (auto& family : forest.families) {
    std::sort(family.begin(), family.end());
    family.erase(std::unique(family.begin(), family.end()), family.end());
  }
  return forest;
}

}  // namespace lmds::spqr
