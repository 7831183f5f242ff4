#pragma once
// Core immutable graph type used throughout the library.
//
// Graphs are simple (no self-loops, no parallel edges), undirected, and
// stored in CSR form with sorted adjacency lists so that edge queries are
// O(log deg) and neighbourhood iteration is cache-friendly. Vertices are
// dense integers 0..n-1; algorithms that work on subgraphs carry an explicit
// mapping back to the parent graph instead of storing labels inside Graph.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace lmds::graph {

/// Vertex index. Signed on purpose (C++ Core Guidelines ES.102); -1 is used
/// as a sentinel for "no vertex" in traversal outputs.
using Vertex = std::int32_t;

inline constexpr Vertex kNoVertex = -1;

class Graph;
struct GraphPatch;
struct PatchedGraph;
PatchedGraph apply_patch(const Graph& parent, const GraphPatch& patch);

namespace detail {
struct TrustedCsr;
}  // namespace detail

/// An undirected edge, stored with endpoints() in ascending order.
struct Edge {
  Vertex u = kNoVertex;
  Vertex v = kNoVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable simple undirected graph in CSR form.
///
/// Construct via GraphBuilder (see builder.hpp) or one of the generators.
class Graph {
 public:
  /// Empty graph with no vertices.
  Graph() = default;

  /// Builds from an adjacency list. Each inner vector is sorted and
  /// deduplicated; self-loops are rejected. Symmetry is enforced: if u lists
  /// v then v must list u (throws std::invalid_argument otherwise).
  explicit Graph(const std::vector<std::vector<Vertex>>& adjacency);

  /// Number of vertices.
  int num_vertices() const { return static_cast<int>(offsets_.empty() ? 0 : offsets_.size() - 1); }

  /// Number of undirected edges.
  int num_edges() const { return static_cast<int>(neighbors_.size() / 2); }

  /// True iff v is a valid vertex index of this graph.
  bool has_vertex(Vertex v) const { return v >= 0 && v < num_vertices(); }

  /// Sorted open neighbourhood N(v).
  std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbors_.data() + offsets_[static_cast<std::size_t>(v)],
            neighbors_.data() + offsets_[static_cast<std::size_t>(v) + 1]};
  }

  /// Degree of v.
  int degree(Vertex v) const {
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }

  /// Start of v's adjacency in the flat CSR array. Slot j of vertex v (its
  /// j-th neighbour) has the stable flat index adjacency_offset(v) + j —
  /// the indexing scheme hot paths use for parallel per-slot attribute
  /// arrays (e.g. the undirected edge id of every directed CSR slot).
  std::size_t adjacency_offset(Vertex v) const { return offsets_[static_cast<std::size_t>(v)]; }

  /// Edge query in O(log deg(u)).
  bool has_edge(Vertex u, Vertex v) const;

  /// All edges with u < v, in lexicographic order.
  std::vector<Edge> edges() const;

  /// Sorted closed neighbourhood N[v] = N(v) ∪ {v}.
  std::vector<Vertex> closed_neighborhood(Vertex v) const;

  /// True iff N[a] ⊆ N[b] (closed-neighbourhood containment; the test used by
  /// the D2 rule of Theorem 4.4 and the "interesting vertex" definition).
  /// False when deg a > deg b, after two degree reads; otherwise one merge
  /// walk of the two sorted rows, O(deg a + deg b), or O(deg a · log deg b)
  /// when N(b) is more than 16 times longer. An id out of range answers
  /// false unless a == b.
  bool closed_neighborhood_contained(Vertex a, Vertex b) const;

  /// True iff N[a] == N[b], i.e. a and b are true twins (or a == b).
  bool true_twins(Vertex a, Vertex b) const;

  /// Human-readable one-line summary, e.g. "Graph(n=10, m=14)".
  std::string summary() const;

  /// Same vertex count and the same rows. Every empty graph is equal,
  /// whether its offsets array is empty (Graph()) or {0} (built).
  friend bool operator==(const Graph& a, const Graph& b) {
    return a.num_vertices() == b.num_vertices() && a.neighbors_ == b.neighbors_ &&
           (a.num_vertices() == 0 || a.offsets_ == b.offsets_);
  }

 private:
  /// Trusted CSR constructor: offsets/neighbors must already satisfy every
  /// class invariant (sorted, symmetric, loop-free). Reachable only through
  /// apply_patch (ops.cpp), which splices unchanged adjacency spans from a
  /// parent graph, and detail::TrustedCsr, the hot paths' assembly seam.
  Graph(std::vector<std::size_t> offsets, std::vector<Vertex> neighbors)
      : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {}

  friend PatchedGraph apply_patch(const Graph& parent, const GraphPatch& patch);
  friend struct detail::TrustedCsr;

  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<Vertex> neighbors_;     // size 2m, sorted per vertex
};

namespace detail {

/// Internal escape hatch into the trusted CSR constructor for hot paths that
/// assemble offsets/neighbors arrays guaranteed to satisfy the Graph
/// invariants by construction (the CSR-native induced-subgraph and ball-view
/// extraction: relabelling is monotone, so copied rows stay sorted, and
/// edges are taken from an already-valid graph). Anything that cannot prove
/// the invariants must go through a validating constructor instead.
struct TrustedCsr {
  static Graph build(std::vector<std::size_t> offsets, std::vector<Vertex> neighbors) {
    return Graph(std::move(offsets), std::move(neighbors));
  }
};

}  // namespace detail

}  // namespace lmds::graph
