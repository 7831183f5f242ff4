#pragma once
// Structural graph operations: induced subgraphs (with parent mappings),
// vertex deletion, true-twin reduction (§2 "true-twin-less graph"),
// contractions (used by the minor machinery), graph powers (used by
// r-components in the asymptotic-dimension module) and disjoint unions.

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::graph {

/// One batch of edge edits against a parent graph — the payload of the
/// serving layer's patch_graph verb and the provenance record behind the
/// executor's ball-granular incremental re-solve. Edges need not be
/// normalized (u < v) or sorted; apply_patch normalizes.
struct GraphPatch {
  std::vector<Edge> add;  ///< edges to insert; must be absent from the parent
  std::vector<Edge> del;  ///< edges to remove; must be present in the parent
  /// Vertex count of the patched graph; -1 keeps the parent's count (grown
  /// to cover any added endpoint). A patch may only grow the vertex set —
  /// vertex deletion would renumber and break every stored handle mapping.
  int n = -1;
};

/// The patched graph plus the normalized edit lists (u < v, sorted,
/// duplicate-free) actually applied — GraphStore records these as the child
/// handle's lineage so a later solve can bound the edit's radius-r impact.
struct PatchedGraph {
  Graph graph;
  std::vector<Edge> added;
  std::vector<Edge> removed;
};

/// Applies a batch of edge edits to `parent`. The edits are sorted by
/// endpoint; only the rows of edited endpoints are rebuilt, by one merge of
/// the parent's row with the row's sorted edits, and each run of untouched
/// rows between two of them is one block copy of the parent's CSR plus a
/// constant shift of its offsets (no re-sort, no re-validation). Cost: a
/// copy of O(V + E) words plus O(k log k) for k edits. Throws
/// std::invalid_argument on any malformed edit: a self-loop or negative
/// endpoint, a duplicate within add or del, an added edge already present,
/// a deleted edge absent, an edge both added and deleted, or an explicit
/// `n` smaller than the parent's vertex count / an added endpoint.
PatchedGraph apply_patch(const Graph& parent, const GraphPatch& patch);

/// An induced subgraph together with the mapping back to the parent graph.
struct Subgraph {
  Graph graph;                     ///< the induced subgraph, vertices relabelled 0..k-1
  std::vector<Vertex> to_parent;   ///< to_parent[i] = vertex of the parent graph
  std::vector<Vertex> from_parent; ///< from_parent[v] = index in subgraph, or kNoVertex

  /// Maps a set of subgraph vertices back to parent indices.
  std::vector<Vertex> lift(std::span<const Vertex> sub_vertices) const;
};

/// Induced subgraph on the given vertices (need not be sorted; duplicates are
/// an error).
Subgraph induced_subgraph(const Graph& g, std::span<const Vertex> vertices);

/// Induced subgraph on V(g) minus the given vertices.
Subgraph remove_vertices(const Graph& g, std::span<const Vertex> vertices);

/// Result of collapsing all true-twin classes to one representative each
/// (the paper's "true-twin-less graph associated to G", §2). The
/// representative of each class is its minimum vertex. MDS is preserved:
/// MDS(G⁻) = MDS(G), and any dominating set of G⁻ dominates G.
struct TwinReduction {
  Subgraph reduced;                  ///< induced subgraph on representatives
  std::vector<Vertex> representative;///< representative[v] = class rep of v in the parent graph
  int num_classes = 0;

  /// Lifts a dominating set of the reduced graph to a dominating set of the
  /// parent graph (identity on representatives).
  std::vector<Vertex> lift_solution(std::span<const Vertex> reduced_solution) const;
};

/// Computes the true-twin reduction of g. Runs in O(m log m).
TwinReduction remove_true_twins(const Graph& g);

/// Contracts each part of the given partition to a single vertex. Parts must
/// be non-empty and disjoint but need not cover V(g); uncovered vertices are
/// dropped. Part i becomes vertex i; an edge {i, j} exists iff some edge of g
/// joins part i and part j. Parts are NOT required to induce connected
/// subgraphs (callers that need minors must ensure connectivity themselves;
/// see minor/minor_check.hpp).
Graph contract_partition(const Graph& g, const std::vector<std::vector<Vertex>>& parts);

/// r-th graph power: u ~ v iff 1 <= d_g(u, v) <= r.
Graph power(const Graph& g, int r);

/// Disjoint union; vertices of b are shifted by a.num_vertices().
Graph disjoint_union(const Graph& a, const Graph& b);

/// The "r-components" of a vertex set S (Section 3): connected components of
/// the graph on S where u ~ v iff d_G(u, v) <= r (distances in the whole
/// graph). Returns the components as sorted vertex lists.
std::vector<std::vector<Vertex>> r_components(const Graph& g, std::span<const Vertex> s, int r);

}  // namespace lmds::graph
