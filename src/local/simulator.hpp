#pragma once
// The LOCAL model simulator (Linial's model, as described in §1 of the
// paper): a synchronous network where, per round, every vertex exchanges
// unbounded messages with its neighbours and performs arbitrary local
// computation. Nodes start knowing only their own O(log n)-bit identifier
// and their incident edges; r+1 rounds of full-knowledge flooding give every
// node exactly the edges with an endpoint at distance <= r, from which it
// can reconstruct G[N^r[v]].
//
// The simulator executes the flooding *as real message passing* (knowledge
// sets grow only through neighbour messages) and accounts rounds, message
// count and message bytes, so the round complexities reported by the benches
// are measured, not asserted.

#include <cstdint>
#include <random>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::local {

using graph::Graph;
using graph::Vertex;

/// Globally unique node identifier (the O(log n)-bit ID of the model).
using NodeId = std::uint64_t;

/// Accumulated communication statistics of a protocol execution.
struct TrafficStats {
  int rounds = 0;
  std::uint64_t messages = 0;  ///< one per directed edge per round
  std::uint64_t bytes = 0;     ///< serialized knowledge actually transmitted

  TrafficStats& operator+=(const TrafficStats& other) {
    rounds += other.rounds;
    messages += other.messages;
    bytes += other.bytes;
    return *this;
  }

  friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

/// A network: a topology plus the identifier assignment. Vertices are the
/// simulator's internal indices; NodeIds are what the distributed algorithm
/// actually sees.
class Network {
 public:
  /// Identity identifiers (id of vertex v is v) — convenient for tests.
  explicit Network(Graph g);

  /// Custom identifiers; must be unique.
  Network(Graph g, std::vector<NodeId> ids);

  /// Random distinct identifiers drawn from a large space, mimicking the
  /// adversarial ID assignment of the model.
  static Network with_random_ids(Graph g, std::mt19937_64& rng);

  const Graph& topology() const { return graph_; }
  int num_nodes() const { return graph_.num_vertices(); }
  NodeId id_of(Vertex v) const { return ids_[static_cast<std::size_t>(v)]; }
  const std::vector<NodeId>& ids() const { return ids_; }

 private:
  Graph graph_;
  std::vector<NodeId> ids_;
};

/// Per-node knowledge after flooding: which edges (by index into
/// topology().edges()) and which vertices each node has heard of.
class FloodingState {
 public:
  explicit FloodingState(const Network& net);

  /// Executes one synchronous round: every node broadcasts its entire
  /// knowledge to all neighbours; knowledge sets take unions. Updates stats.
  /// Double-buffered: the pre-round knowledge is read from the live buffer
  /// while unions are written to a second one, then the buffers swap — no
  /// per-round copy of the whole n x words bitset.
  void step(TrafficStats& stats);

  /// Runs `rounds` rounds.
  void run(int rounds, TrafficStats& stats);

  /// True iff node v has heard of edge index e. Inline — this is the test
  /// the CSR-native view extraction runs once per traversed adjacency slot.
  bool knows_edge(Vertex v, int e) const {
    return (row(v)[static_cast<std::size_t>(e) / 64] >>
            (static_cast<std::size_t>(e) % 64)) & 1;
  }

  /// Edge indices known to node v, ascending.
  std::vector<int> known_edges(Vertex v) const;

 private:
  const Network* net_;
  std::vector<graph::Edge> edges_;
  int words_per_node_ = 0;
  std::vector<std::uint64_t> knowledge_;  // num_nodes x words_per_node bitset
  std::vector<std::uint64_t> next_;       // step()'s write buffer, swapped in
  std::vector<std::uint64_t> popcounts_;  // per-sender row popcounts, reused

  std::uint64_t* row(Vertex v) {
    return knowledge_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(words_per_node_);
  }
  const std::uint64_t* row(Vertex v) const {
    return knowledge_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(words_per_node_);
  }
};

}  // namespace lmds::local
