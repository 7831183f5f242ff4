#pragma once
// Breadth-first-search utilities: distances, balls N^r[·], connected
// components, eccentricities, diameter and weak diameter. These are the
// primitives the LOCAL-model view gathering and the local-cut machinery are
// expressed with.
//
// One engine. mark_ball (and mark_ball_if, its form with a per-slot
// traversal predicate) is the only BFS over a graph's own edges: every
// function below runs it, and so do the view extraction, the local cut
// kernel and the executor's incremental re-solve. It writes into a
// BfsScratch arena that holds the n-sized distance/visited buffers,
// epoch-stamped so consecutive traversals reuse them without an O(n) clear.
// A loop that needs many balls owns one scratch — a per-solve allocation,
// not a per-vertex one; the plain free functions allocate one per call and
// suit one-off queries.

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::graph {

/// Reusable BFS arena. begin(n) sizes the buffers for an n-vertex graph and
/// bumps the visited epoch; marks from earlier traversals become invalid
/// without touching memory. dist[v] is meaningful only where seen(v).
///
/// Ownership rule (docs/ARCHITECTURE.md "hot path"): a scratch is owned by
/// exactly one thread at a time. Parallel per-vertex loops give each worker
/// its own BfsScratch; the arenas grow to the largest graph seen and are
/// reused across every traversal that worker performs.
class BfsScratch {
 public:
  /// Prepares for one traversal of an n-vertex graph: grows buffers, clears
  /// the visit list, invalidates all previous marks (O(1) amortised).
  void begin(int n) {
    const auto sn = static_cast<std::size_t>(n);
    if (stamp_.size() < sn) {
      stamp_.resize(sn, 0);
      dist_.resize(sn);
    }
    if (++epoch_ == 0) {  // stamp wrap: one real clear every 2^32 traversals
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    visited_.clear();
  }

  bool seen(Vertex v) const { return stamp_[static_cast<std::size_t>(v)] == epoch_; }
  int dist(Vertex v) const { return dist_[static_cast<std::size_t>(v)]; }

  /// Marks v visited at distance d and records it in the visit list.
  void mark(Vertex v, int d) {
    stamp_[static_cast<std::size_t>(v)] = epoch_;
    dist_[static_cast<std::size_t>(v)] = d;
    visited_.push_back(v);
  }

  /// Vertices visited since begin(), in visit order.
  const std::vector<Vertex>& visited() const { return visited_; }

 private:
  std::vector<int> dist_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<Vertex> visited_;
};

/// Marks the ball N^r[S] in the caller's scratch, with no output copy:
/// afterwards scratch.seen(u)/scratch.dist(u) answer membership and distance
/// queries for exactly the ball members, and scratch.visited() lists them in
/// BFS order, until the next begin(). r < 0 means unbounded. Throws
/// std::invalid_argument for a source out of range.
void mark_ball(const Graph& g, std::span<const Vertex> sources, int r, BfsScratch& scratch);

/// mark_ball over the slots `pass` admits: the edge from a marked x to its
/// j-th neighbour w is traversed only if pass(g.adjacency_offset(x) + j, w)
/// holds (the flat CSR slot index, as in Graph::adjacency_offset). Sources
/// are marked unconditionally. dist is the distance in the admitted
/// subgraph. `pass` is taken by value: a local copy lets the compiler keep
/// its captures in registers across the marks' stores.
template <typename Pass>
void mark_ball_if(const Graph& g, std::span<const Vertex> sources, int r, BfsScratch& scratch,
                  Pass pass) {
  scratch.begin(g.num_vertices());
  for (Vertex s : sources) {
    if (!g.has_vertex(s)) throw std::invalid_argument("bfs: source out of range");
    if (!scratch.seen(s)) scratch.mark(s, 0);
  }
  // The visit list doubles as the queue: it is in BFS order, so level d is
  // the range [lo, hi) appended while expanding level d - 1. Expansion stops
  // after level r - 1 (never, for r < 0) or when a level is empty.
  std::size_t lo = 0;
  for (int d = 0; d != r && lo < scratch.visited().size(); ++d) {
    const std::size_t hi = scratch.visited().size();
    for (std::size_t i = lo; i < hi; ++i) {
      const Vertex x = scratch.visited()[i];
      const auto nb = g.neighbors(x);
      const std::size_t base = g.adjacency_offset(x);
      for (std::size_t j = 0; j < nb.size(); ++j) {
        if (!scratch.seen(nb[j]) && pass(base + j, nb[j])) scratch.mark(nb[j], d + 1);
      }
    }
    lo = hi;
  }
}

/// Sorted ball N^r[S] written into `out` (cleared first) using the caller's
/// scratch — the allocation-free variant of ball_of_set(). Leaves the
/// scratch marked as mark_ball() does.
void ball_of_set_into(const Graph& g, std::span<const Vertex> sources, int r,
                      BfsScratch& scratch, std::vector<Vertex>& out);

/// Distances from src; -1 for unreachable vertices.
std::vector<int> bfs_distances(const Graph& g, Vertex src);

/// Distances from the nearest of the given sources; -1 for unreachable.
std::vector<int> bfs_distances_multi(const Graph& g, std::span<const Vertex> sources);

/// Sorted ball N^r[v]: all vertices at distance <= r from v.
std::vector<Vertex> ball(const Graph& g, Vertex v, int r);

/// Sorted ball N^r[S] around a set of sources.
std::vector<Vertex> ball_of_set(const Graph& g, std::span<const Vertex> sources, int r);

/// Result of a connected-components labelling.
struct Components {
  std::vector<int> component;  ///< component id per vertex, 0..count-1
  int count = 0;

  /// Vertices of each component, sorted.
  std::vector<std::vector<Vertex>> groups() const;
};

/// Connected components of g.
Components connected_components(const Graph& g);

/// Connected components of g with the given vertices deleted. Removed
/// vertices get component id -1; ids follow each component's smallest
/// vertex.
Components components_without(const Graph& g, std::span<const Vertex> removed);

/// True iff g is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// Eccentricity of v (max distance to any vertex); -1 if some vertex is
/// unreachable from v.
int eccentricity(const Graph& g, Vertex v);

/// Diameter; -1 if disconnected. O(n·m) — intended for tests and benches on
/// moderate instances.
int diameter(const Graph& g);

/// Weak diameter of the set S: max over u,v in S of d_G(u, v), where
/// distances are measured in the *whole* graph g. Returns -1 if some pair is
/// disconnected in g. This is the notion used by asymptotic dimension (§3).
/// Throws std::invalid_argument for a vertex of S out of range.
int weak_diameter(const Graph& g, std::span<const Vertex> s);

/// Distance between two vertices (-1 if disconnected). Throws
/// std::invalid_argument for a vertex out of range.
int distance(const Graph& g, Vertex u, Vertex v);

}  // namespace lmds::graph
