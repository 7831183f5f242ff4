#pragma once
// Articulation points, biconnected components and the block-cut tree.
//
// The block-cut tree is the "tree-like structure" behind Claim 5.3 of the
// paper (bounding 1-cuts against MDS) and the 1-cut layer of the
// interesting-2-cut forests of §5.3.

#include <vector>

#include "graph/graph.hpp"

namespace lmds::cuts {

using graph::Graph;
using graph::Vertex;

/// Sorted list of articulation points (1-cuts) of g. Linear time (iterative
/// Tarjan lowpoint DFS).
std::vector<Vertex> articulation_points(const Graph& g);

/// The blocks of g (as in BlockCutTree::blocks, same order): one Tarjan
/// pass, no tree.
std::vector<std::vector<Vertex>> biconnected_blocks(const Graph& g);

/// True iff removing v increases the number of connected components.
/// O(n + m) — brute-force reference used in tests and by the seed local-cut
/// oracles (tests/support/cut_reference.hpp).
bool is_cut_vertex(const Graph& g, Vertex v);

/// The block-cut tree of a graph.
///
/// Nodes are the maximal biconnected components ("blocks", including bridge
/// edges and isolated vertices as trivial blocks) plus the cut vertices.
/// In `tree`, node i < num_blocks() is block i and node num_blocks() + j is
/// cut vertex cut_vertices[j]; a block is adjacent to every cut vertex it
/// contains. For a connected graph the result is a tree.
struct BlockCutTree {
  std::vector<std::vector<Vertex>> blocks;  ///< vertex lists, each sorted
  std::vector<Vertex> cut_vertices;         ///< sorted articulation points
  Graph tree;                               ///< bipartite block/cut incidence tree

  int num_blocks() const { return static_cast<int>(blocks.size()); }
  int num_cut_vertices() const { return static_cast<int>(cut_vertices.size()); }

  /// Tree node index of the j-th cut vertex.
  Vertex cut_node(int j) const { return static_cast<Vertex>(num_blocks() + j); }

  /// Index into cut_vertices for graph vertex v, or -1 if v is not a cut
  /// vertex.
  int cut_index(Vertex v) const;

  /// Blocks containing graph vertex v (indices into `blocks`).
  std::vector<int> blocks_of(Vertex v) const;
};

/// Computes the block-cut tree of g.
BlockCutTree block_cut_tree(const Graph& g);

}  // namespace lmds::cuts
