#pragma once
// Ball views: what a node actually knows after r+1 rounds of flooding —
// the induced subgraph on N^r[v] with identifiers and distances. Every
// LOCAL algorithm in this library is a pure function of a BallView, which
// makes locality true by construction: the decision code cannot read
// anything the protocol did not deliver.
//
// Extraction is CSR-native (the per-solve hot path): each view is cut
// directly out of the topology CSR — one graph::mark_ball_if from the
// centre, capped at the radius, into a reusable ViewScratch arena; its slot
// predicate admits only edges the centre's flooding knowledge holds, which
// keeps a view to delivered edges. A monotone relabelling then writes the
// ball straight into the view's CSR arrays. No per-vertex GraphBuilder, no
// full-graph BFS, no n-sized allocation per centre. The seed
// implementations survive outside the library, in
// tests/support/view_reference.hpp, as the differential baselines
// (tests/test_hotpath.cpp, bench_perf).

#include <vector>

#include "graph/bfs.hpp"
#include "local/simulator.hpp"

namespace lmds::local {

/// A radius-r view centred at some node.
struct BallView {
  Graph graph;                ///< induced subgraph on N^r[centre], re-indexed
  std::vector<NodeId> ids;    ///< ids[i] = global identifier of local vertex i
  std::vector<int> dist;      ///< dist[i] = distance from the centre
  Vertex centre = 0;          ///< local index of the view's centre
  int radius = 0;
  /// Local indices sorted by id — the binary-search index behind
  /// local_index_of. Every library extraction path builds it; a
  /// hand-assembled view may call build_id_index() or rely on the linear
  /// fallback. ids are NOT sorted by local index (local order follows the
  /// topology, ids are adversarial), hence the explicit permutation.
  std::vector<Vertex> id_order;

  int num_vertices() const { return graph.num_vertices(); }

  /// Local index of the vertex with the given identifier, or kNoVertex.
  /// O(log k) through id_order when present, O(k) otherwise.
  Vertex local_index_of(NodeId id) const;

  /// (Re)builds id_order from ids. Idempotent; ids must be unique.
  void build_id_index();

  /// Vertices at distance <= k from the centre (k <= radius), sorted.
  std::vector<Vertex> inner_ball(int k) const;
};

/// Reusable per-worker extraction arena: the BFS scratch plus the ball and
/// global->local relabelling buffers. One ViewScratch serves any number of
/// consecutive extractions (it grows to the largest graph seen); it must not
/// be shared between threads concurrently — parallel gathers give each
/// worker its own (see docs/ARCHITECTURE.md "hot path").
struct ViewScratch {
  graph::BfsScratch bfs;
  std::vector<graph::Vertex> ball;      ///< sorted global ball of the last centre
  std::vector<graph::Vertex> local_of;  ///< global -> local; valid where bfs.seen()
};

/// Gathers the radius-r views of all nodes by running r+1 flooding rounds.
/// If stats is non-null, the traffic of this phase is added to it.
/// `threads` shards the per-vertex extraction across a fork-join pool
/// (<= 0 picks hardware_concurrency); the result is bit-identical for every
/// thread count — each view lands in its own preallocated slot.
std::vector<BallView> gather_views(const Network& net, int radius, TrafficStats* stats = nullptr,
                                   int threads = 1);

/// Reference-semantics view that bypasses message passing and cuts the view
/// directly out of the topology. gather_views must agree with this exactly
/// (tested); benches use it when only decisions, not traffic, matter.
BallView cut_view(const Network& net, Vertex centre, int radius);

/// cut_view into a caller-owned scratch — the allocation-free variant for
/// per-vertex loops.
BallView cut_view_into(const Network& net, Vertex centre, int radius, ViewScratch& scratch);

/// All n cut views, extraction sharded across `threads` workers (<= 0 picks
/// hardware_concurrency). Bit-identical to calling cut_view per vertex.
std::vector<BallView> cut_views(const Network& net, int radius, int threads = 1);

namespace detail {

/// Undirected edge id of every directed CSR slot of g: slot
/// adjacency_offset(u) + j holds the index of edge {u, neighbors(u)[j]} in
/// g.edges() order — the bridge between the topology CSR and the flooding
/// knowledge bitset, computed once per gather.
std::vector<int> edge_ids_per_slot(const Graph& g);

}  // namespace detail

}  // namespace lmds::local
