#pragma once
// Crossing 2-cuts (§5.3) and split-pair enumeration.
//
// Two 2-cuts c1, c2 cross when the two vertices of c1 lie in different
// components of G − c2 *and* vice versa. Cuts sharing a vertex never cross.
// The interesting-2-cut forests are exactly families of pairwise
// non-crossing cuts; cuts_cross is the predicate the tests of
// Proposition 5.8 are written against.

#include <vector>

#include "cuts/local_cuts.hpp"
#include "graph/graph.hpp"

namespace lmds::spqr {

using graph::Graph;
using graph::Vertex;

/// §5.3 crossing relation between two (minimal) 2-cuts.
bool cuts_cross(const Graph& g, cuts::VertexPair c1, cuts::VertexPair c2);

/// Split pairs of a 2-connected graph: adjacent pairs and minimal 2-cuts —
/// the pairs along which the SPQR decomposition may split.
std::vector<cuts::VertexPair> split_pairs(const Graph& g);

}  // namespace lmds::spqr
