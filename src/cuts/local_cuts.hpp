#pragma once
// r-local cuts (Definition 2.1).
//
// A set C of vertices, pairwise at distance <= r, is an r-local k-cut when C
// is a (minimal) k-cut of G[∪_{v∈C} N^r[v]]. For k = 1 this means v is an
// articulation point of its own r-ball; for k = 2 it means {u, v} is a
// minimal 2-cut of the union of the two r-balls.
//
// Locality: deciding "is v in an r-local 1-cut" needs only G[N^r[v]], a
// radius-r view (r + 1 rounds of flooding, local/view.hpp); deciding "is
// {u,v} an r-local 2-cut" from v's perspective needs G[N^r[u] ∪ N^r[v]],
// which lies in the radius-2r view since N^r[u] ∪ N^r[v] ⊆ N^{2r}[v].
// Algorithm 1's LOCAL run gathers one view per vertex, of radius
// max(r1, 2·r2), for both steps (cut_steps in core/algorithm1.cpp); that
// gather's rounds are where its reported round counts come from.
//
// Cost. Every predicate here and in cuts/interesting.hpp is a loop over one
// LocalCutKernel. A pair the kernel classifies costs one bounded BFS of its
// ball N^r[{u, v}] plus at most one labelling of that ball, and
// N^r[{u, v}] ⊆ N^{2r}[v], so a whole-graph function costs at most
// O(Σ_v |N^r[v]| · vol(N^{2r}[v])): linear in n while the balls stay
// bounded, and never a traversal of the whole graph per pair. The labelling
// stops once the ball minus the pair is known to be connected, which
// settles most pairs near u and v. Most pairs never reach the kernel: the
// 2-cut loops draw partners from a PairFilter, which enumerates only pairs
// that share a block (none in a tree) and rejects a pair with a connected
// link at the cost of a block lookup and at most two link searches, not a
// ball. A 1-cut test skips the ball when the vertex's link is connected.

#include <vector>

#include "graph/bfs.hpp"
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

/// What one kernel pass learns about a candidate pair {u, v}: how the
/// components of G[N^r[{u, v}]] − {u, v} attach to u and v.
struct PairCut {
  bool minimal = false;   ///< >= 2 components adjacent to both u and v
  bool spread_u = false;  ///< >= 2 components hold a vertex non-adjacent to u
  bool spread_v = false;  ///< >= 2 components hold a vertex non-adjacent to v
};

/// The r-local cut kernel. It owns two graph::BfsScratch arenas (one marks
/// balls, one labels components), a union-find over label classes and the
/// per-component counters; all grow to the largest graph seen and are
/// reused by every call.
///
/// Like BfsScratch it is single-owner (docs/ARCHITECTURE.md "hot path"):
/// one kernel per thread. Callers validate radii and vertices; every method
/// requires r >= 1 and valid vertex ids.
class LocalCutKernel {
 public:
  /// True iff v is an articulation point of G[N^r[v]].
  bool is_one_cut(const Graph& g, Vertex v, int r);

  /// True iff d(u, v) <= r, by a BFS from v capped at radius r.
  bool within(const Graph& g, Vertex u, Vertex v, int r);

  /// Classifies the pair {u, v}; requires u != v and d(u, v) <= r. The
  /// spread flags are computed only for a minimal pair (false otherwise).
  PairCut pair(const Graph& g, Vertex u, Vertex v, int r);

 private:
  // Labels the components of the marked ball minus its first `sources`
  // visited vertices; returns their number, or 1 as soon as it is 1.
  int label_components(const Graph& g, std::size_t sources);
  int find(int c);  // root of a label class (union-find, path halving)

  graph::BfsScratch ball_;   // ball members; dist = distance to the sources
  graph::BfsScratch label_;  // labelled vertices; dist = label class
  std::vector<int> parent_;  // per label class: union-find parent
  std::vector<int> size_;    // per component root: vertices,
  std::vector<int> near_u_;  // ... of which neighbours of u,
  std::vector<int> near_v_;  // ... of which neighbours of v
};

/// Two necessary conditions for {u, v} to be an r-local minimal 2-cut, both
/// valid for every r >= 1 and read from g once:
///  * block test: two full components give two internally disjoint u–v
///    paths, so u and v share a block of g with >= 3 vertices;
///  * link test: if G[N(u) − v] is connected, u's other neighbours lie in
///    one component of the ball minus {u, v}, so at most one component is
///    adjacent to u (likewise for v). It reads only edges among N(u), which
///    every ball holds.
/// A pair either test rejects is no minimal pair, so asking the filter
/// before LocalCutKernel::pair changes cost, not answers. Built from a
/// LOCAL view, it reads only that view. Single-owner, like the kernel; g
/// must outlive the filter.
class PairFilter {
 public:
  explicit PairFilter(const Graph& g);

  /// The block test.
  bool share_block(Vertex u, Vertex v) const;

  /// The link test for both ends: G[N(u) − v] and G[N(v) − u] are both
  /// disconnected. A partner outside N(u) reads u's cached link.
  bool links_split(Vertex u, Vertex v);

  /// Sorted: every u != v with d(u, v) <= r that shares a block of >= 3
  /// vertices with v. A shortest path between two vertices of a block stays
  /// in it, so one BFS inside each of v's blocks finds them. Valid until
  /// the next partners() call.
  const std::vector<Vertex>& partners(Vertex v, int r);

 private:
  bool in_block(Vertex w, int b) const;

  const Graph& g_;
  std::vector<int> first_;          // v's blocks of >= 3 vertices are
  std::vector<int> blocks_;         // blocks_[first_[v], first_[v + 1]), ascending
  std::vector<signed char> split_;  // per vertex: is its link split (-1: not yet known)
  graph::BfsScratch scratch_;
  std::vector<Vertex> partners_;
};

/// True iff {v} is an r-local (minimal) 1-cut: v is an articulation point of
/// G[N^r[v]]. Throws std::invalid_argument for r < 1 or a bad vertex.
bool is_local_one_cut(const Graph& g, Vertex v, int r);

/// Sorted list of all r-local 1-cut vertices of g.
std::vector<Vertex> local_one_cuts(const Graph& g, int r);

/// True iff {u, v} is an r-local minimal 2-cut: d_G(u, v) <= r and {u, v} is
/// a minimal 2-cut of G[N^r[u] ∪ N^r[v]]. Throws std::invalid_argument for
/// r < 1 or a bad vertex (u == v answers false first).
bool is_local_two_cut(const Graph& g, Vertex u, Vertex v, int r);

/// All r-local minimal 2-cuts of g (u < v in each pair), in lexicographic
/// order. One kernel pass per pair at distance <= r that the filter keeps.
std::vector<VertexPair> local_two_cuts(const Graph& g, int r);

/// Sorted list of vertices appearing in some r-local minimal 2-cut.
std::vector<Vertex> vertices_in_local_two_cuts(const Graph& g, int r);

}  // namespace lmds::cuts
