#pragma once
// Minimal 2-cuts (2-separators).
//
// Convention (docs/REPRODUCTION.md, note 4): {u, v} is a *minimal* 2-cut iff at least two
// connected components of G − {u, v} are adjacent to both u and v ("full"
// components). This matches the standard minimal-separator notion and every
// use in the paper: no proper subset separates the same components, and in a
// 2-connected graph it coincides with "removal disconnects".

#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::cuts {

using graph::Graph;
using graph::Vertex;

/// Unordered vertex pair with u < v.
struct VertexPair {
  Vertex u = graph::kNoVertex;
  Vertex v = graph::kNoVertex;

  friend bool operator==(const VertexPair&, const VertexPair&) = default;
  friend auto operator<=>(const VertexPair&, const VertexPair&) = default;
};

/// Normalises an unordered pair.
inline VertexPair make_pair_sorted(Vertex a, Vertex b) {
  return a < b ? VertexPair{a, b} : VertexPair{b, a};
}

/// True iff {u, v} is a minimal 2-cut of g (>= 2 full components).
bool is_minimal_two_cut(const Graph& g, Vertex u, Vertex v);

/// Number of connected components of G − {u, v} adjacent to both u and v.
int full_component_count(const Graph& g, Vertex u, Vertex v);

/// All minimal 2-cuts of g, brute force over pairs. O(n^2 (n + m)) —
/// intended for ball graphs and test instances.
std::vector<VertexPair> minimal_two_cuts(const Graph& g);

/// All vertices appearing in some minimal 2-cut of g.
std::vector<Vertex> vertices_in_minimal_two_cuts(const Graph& g);

}  // namespace lmds::cuts
