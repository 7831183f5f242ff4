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
//
// A run's Diagnostics hold its rounds: the rule's 3 for a centralized run,
// and the simulator's measured count and traffic for a LOCAL one.

#include "core/solver_output.hpp"
#include "graph/graph.hpp"
#include "local/runner.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Graph;
using graph::Vertex;

/// The MDS rule at one vertex, with vertex indices as identifiers: v joins
/// unless a neighbour u has N[v] ⊊ N[u], or N[v] = N[u] and u < v. It reads
/// only ball(v, 2) and compares indices for order only (the registry's
/// `theorem44` decide, through api::decide_each). Cost: one
/// Graph::closed_neighborhood_contained test per neighbour, each neighbour
/// of smaller degree refused by its degree prefilter.
bool theorem44_mds_joins(const Graph& g, Vertex v);

/// Centralized evaluation of the 3-round MDS rule: the ascending
/// {v : theorem44_mds_joins(g, v)} (identical output to the LOCAL
/// execution; see theorem44_mds_local). `threads` shards the per-vertex rule
/// across a fork-join pool (<= 0 picks hardware_concurrency); the output is
/// bit-identical for any thread count.
SolverOutput theorem44_mds(const Graph& g, int threads = 1);

/// LOCAL execution through the message-passing simulator.
SolverOutput theorem44_mds_local(const local::Network& net, int threads = 1);

/// The per-node decision as a pure view function (exposed for tests and for
/// composing with other runners). Expects a radius-2 view.
bool theorem44_mds_decision(const local::BallView& view);

/// The MVC rule at one vertex, with vertex indices as identifiers: degree
/// >= 2 joins, and of an isolated edge the smaller endpoint. Reads ball(v, 2)
/// in O(1) (the registry's `theorem44-mvc` decide).
bool theorem44_mvc_joins(const Graph& g, Vertex v);

/// Centralized evaluation of the 3-round MVC rule: the ascending
/// {v : theorem44_mvc_joins(g, v)}.
SolverOutput theorem44_mvc(const Graph& g, int threads = 1);

/// LOCAL execution of the MVC rule.
SolverOutput theorem44_mvc_local(const local::Network& net, int threads = 1);

/// Per-node decision of the MVC rule (radius-2 view; degree tests of
/// neighbours need distance-2 edges).
bool theorem44_mvc_decision(const local::BallView& view);

}  // namespace lmds::core
