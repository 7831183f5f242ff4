#pragma once
// SPQR trees: the decomposition of a 2-connected graph into triconnected
// components (§5.3 of the paper). Used there to arrange interesting 2-cuts
// into three pairwise-non-crossing families (the "interesting 2-cut
// forests"); here also independently tested against the classic structure
// facts (cycles are one S node, 3-connected graphs one R node, theta
// bundles a P node with S children, and Proposition 5.7: every 2-cut shows
// up as a virtual edge / P pole pair / non-adjacent S-node pair).
//
// The construction is the straightforward recursive split decomposition on
// multigraphs (O(n·m²), fine for analysis workloads; it sits outside the
// library, in lmds_test_support, because no solver calls it).

#include <vector>

#include "cuts/local_cuts.hpp"
#include "graph/graph.hpp"

namespace lmds::spqr {

using graph::Graph;
using graph::Vertex;

/// Node kinds. Q nodes (single real edges) are not materialised, matching
/// the paper's convention.
enum class NodeType { kS, kP, kR };

/// An edge of a skeleton: endpoints are *global* vertex ids; a virtual edge
/// names the adjacent tree node it corresponds to.
struct SkeletonEdge {
  Vertex u = graph::kNoVertex;
  Vertex v = graph::kNoVertex;
  bool is_virtual = false;
  int peer = -1;  ///< adjacent tree node for virtual edges, else -1
};

/// One SPQR tree node.
struct SpqrNode {
  NodeType type = NodeType::kR;
  std::vector<Vertex> vertices;       ///< global ids, sorted
  std::vector<SkeletonEdge> edges;    ///< skeleton edges (may be parallel in P nodes)

  /// For S nodes: the skeleton cycle as an ordered global-vertex sequence.
  std::vector<Vertex> cycle_order;
};

/// The SPQR tree of a 2-connected graph.
struct SpqrTree {
  std::vector<SpqrNode> nodes;
  std::vector<std::pair<int, int>> tree_edges;  ///< node-index pairs

  int num_nodes() const { return static_cast<int>(nodes.size()); }

  /// Indices of nodes of the given type.
  std::vector<int> nodes_of_type(NodeType type) const;
};

/// Builds the SPQR tree. Requires g 2-connected with >= 3 vertices (throws
/// std::invalid_argument otherwise). Adjacent S nodes are merged, as are
/// adjacent P nodes, giving the canonical tree.
SpqrTree spqr_tree(const Graph& g);

/// Proposition 5.7 helper: all vertex pairs that the tree "displays" as
/// potential 2-cuts — endpoints of virtual edges (R/S nodes), poles of P
/// nodes with >= 2 virtual edges, and non-adjacent vertex pairs of S nodes.
std::vector<cuts::VertexPair> displayed_pairs(const SpqrTree& tree);

}  // namespace lmds::spqr
