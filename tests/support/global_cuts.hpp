#pragma once
// Global (r = ∞) cut oracles, kept outside the library: Algorithm 1 only
// evaluates the r-local predicates of cuts/local_cuts.hpp and
// cuts/interesting.hpp. These brute-force definitions are what the tests,
// the §5.3 analysis (support/cut_forest.hpp) and examples/cut_explorer check
// against: articulation points and the block-cut tree, minimal 2-cuts, and
// globally interesting vertices.
//
// Convention (docs/REPRODUCTION.md, note 4): {u, v} is a *minimal* 2-cut iff at least two
// connected components of G − {u, v} are adjacent to both u and v ("full"
// components). This matches the standard minimal-separator notion and every
// use in the paper: no proper subset separates the same components, and in a
// 2-connected graph it coincides with "removal disconnects".

#include <vector>

#include "cuts/block_cut.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/graph.hpp"

namespace lmds::cuts {

/// Sorted list of articulation points (1-cuts) of g: the vertices that lie
/// in two or more of biconnected_blocks(g).
std::vector<Vertex> articulation_points(const Graph& g);

/// True iff removing v increases the number of connected components.
/// O(n + m) — brute-force reference used in tests and by the seed local-cut
/// oracles (support/cut_reference.hpp).
bool is_cut_vertex(const Graph& g, Vertex v);

/// The block-cut tree of a graph: the "tree-like structure" behind Claim
/// 5.3 of the paper (bounding 1-cuts against MDS) and the 1-cut layer of
/// the interesting-2-cut forests of §5.3.
///
/// Nodes are the maximal biconnected components ("blocks", including bridge
/// edges and isolated vertices as trivial blocks) plus the cut vertices.
/// In `tree`, node i < num_blocks() is block i and node num_blocks() + j is
/// cut vertex cut_vertices[j]; a block is adjacent to every cut vertex it
/// contains. For a connected graph the result is a tree.
struct BlockCutTree {
  std::vector<std::vector<Vertex>> blocks;  ///< biconnected_blocks(g)
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

/// True iff {u, v} is a minimal 2-cut of g (>= 2 full components).
bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v);

/// Number of connected components of G − {u, v} adjacent to both u and v.
int full_component_count(const Graph& g, Vertex u, Vertex v);

/// All minimal 2-cuts of g, brute force over pairs. O(n^2 (n + m)) —
/// intended for ball graphs and test instances.
std::vector<VertexPair> minimal_two_cuts(const Graph& g);

/// All vertices appearing in some minimal 2-cut of g.
std::vector<Vertex> vertices_in_minimal_two_cuts(const Graph& g);

/// Global variant of cuts::certifies_interesting: {u, v} is a minimal 2-cut
/// of g, N[v] ⊄ N[u], and at least two components of G − {u, v} contain a
/// vertex non-adjacent to u. Then v is "interesting" and u is a "friend" of
/// v (§5.3 wording: v interesting with friend u ⇔ the cut {v, u} is
/// interesting for v).
bool certifies_globally_interesting(const Graph& g, Vertex v, Vertex u);

/// True iff some u makes v globally interesting.
bool is_globally_interesting(const Graph& g, Vertex v);

/// Sorted list of globally interesting vertices.
std::vector<Vertex> globally_interesting_vertices(const Graph& g);

/// "Almost interesting" (§5.3): v satisfies condition (2) only, for some
/// minimal 2-cut {u, v} of g.
bool is_almost_interesting(const Graph& g, Vertex v);

}  // namespace lmds::cuts
