#pragma once
// Seed implementations of closed-neighbourhood containment and Theorem 4.4's
// MDS rule, kept verbatim outside the library: containment makes one
// has_edge binary search per neighbour, and the rule runs up to four
// containment tests per neighbour (a true-twin test, then a strict
// containment test). They are the differential baselines the one-merge-walk
// predicate (graph::Graph::closed_neighborhood_contained) and the
// one-test-per-neighbour rule (core::theorem44_mds_joins,
// core::theorem44_mds_decision) are tested against (tests/test_hotpath.cpp).

#include <vector>

#include "graph/graph.hpp"
#include "local/view.hpp"

namespace lmds::graph::detail {

bool closed_neighborhood_contained_reference(const Graph& g, Vertex a, Vertex b);
bool true_twins_reference(const Graph& g, Vertex a, Vertex b);

}  // namespace lmds::graph::detail

namespace lmds::core::detail {

/// The seed centralized solve: vertex indices as identifiers.
std::vector<graph::Vertex> theorem44_mds_reference(const graph::Graph& g);
/// The seed LOCAL decision on a radius-2 view, with the view's ids.
bool theorem44_mds_decision_reference(const local::BallView& view);

}  // namespace lmds::core::detail
