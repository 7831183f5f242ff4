#pragma once
// Theorem 4.4: the 3-round linear approximation.
//
// MDS (ratio 2t-1 on K_{2,t}-minor-free graphs): remove true twins, then
// output D2 = every vertex whose closed neighbourhood cannot be dominated by
// a single other vertex. Equivalently, at the level of the original graph:
//   v joins  iff  v is the minimum-id member of its true-twin class
//            and  no vertex u has N[v] ⊊ N[u].
// Both conditions are functions of the radius-2 ball, hence 3 rounds.
//
// MVC (ratio t): drop isolated vertices, take every vertex of degree >= 2
// plus the minimum-id endpoint of every isolated edge. The paper states this
// ratio without proof; docs/REPRODUCTION.md (note 3) gives the reconstruction
// via Lemma 5.18.

#include <vector>

#include "graph/graph.hpp"
#include "local/runner.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Graph;
using graph::Vertex;

/// Result of a Theorem 4.4 run.
struct Theorem44Result {
  std::vector<Vertex> solution;  ///< vertices of the input graph
  local::TrafficStats traffic;   ///< rounds = 3 (radius-2 views)
};

/// Centralized evaluation of the 3-round MDS rule (identical output to the
/// LOCAL execution; see theorem44_mds_local). `threads` shards the
/// per-vertex rule across a fork-join pool (<= 0 picks
/// hardware_concurrency); the output is bit-identical for any thread count.
Theorem44Result theorem44_mds(const Graph& g, int threads = 1);

/// LOCAL execution through the message-passing simulator.
Theorem44Result theorem44_mds_local(const local::Network& net, int threads = 1);

/// The per-node decision as a pure view function (exposed for tests and for
/// composing with other runners). Expects a radius-2 view.
bool theorem44_mds_decision(const local::BallView& view);

/// Centralized evaluation of the 3-round MVC rule.
Theorem44Result theorem44_mvc(const Graph& g, int threads = 1);

/// LOCAL execution of the MVC rule.
Theorem44Result theorem44_mvc_local(const local::Network& net, int threads = 1);

/// Per-node decision of the MVC rule (radius-2 view; degree tests of
/// neighbours need distance-2 edges).
bool theorem44_mvc_decision(const local::BallView& view);

}  // namespace lmds::core
