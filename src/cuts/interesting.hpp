#pragma once
// "Interesting" vertices of (local) 2-cuts — Section 3.2 / Section 4.
//
// A vertex v is r-interesting when some r-local minimal 2-cut c = {u, v}
// satisfies:
//   (1) N[v] ⊄ N[u]  (taking u instead of v would not be strictly better),
//   (2) at least two connected components of G[N^r[c]] − c contain a vertex
//       non-adjacent to u (u cannot dominate all but one attached component).
//
// The paper's global analogue (r = ∞, the components of G − c), which feeds
// the SPQR-based analysis of §5.3, is a test oracle:
// tests/support/global_cuts.hpp.

#include <vector>

#include "cuts/local_cuts.hpp"
#include "graph/graph.hpp"

namespace lmds::cuts {

/// Checks conditions (1) and (2) for the specific r-local pair {u, v}
/// (including that {u, v} actually is an r-local minimal 2-cut). False for
/// u == v or r < 1; throws std::invalid_argument for a bad vertex.
bool certifies_interesting(const Graph& g, Vertex v, Vertex u, int r);

/// True iff some u makes v r-interesting; false for r < 1. Throws
/// std::invalid_argument for a bad vertex. Builds its PairFilter from g, so
/// a LOCAL rule that passes its view reads only the view.
bool is_interesting(const Graph& g, Vertex v, int r);

/// True iff v lies in some r-local minimal 2-cut {v, u}
/// (cuts/local_cuts.hpp) — the vertex-cover variant's counterpart of
/// is_interesting; vertices_in_local_two_cuts lists the same vertices.
/// Throws std::invalid_argument for r < 1 or a bad vertex, like the other
/// 2-cut functions.
bool in_local_two_cut(const Graph& g, Vertex v, int r);

/// Sorted list of all r-interesting vertices of g; empty for r < 1. A pair
/// at distance <= r that shares a block costs one kernel pass, unless the
/// link test rejects it for a block lookup and at most two link searches
/// (cuts/local_cuts.hpp); a pair in no common block costs nothing.
std::vector<Vertex> interesting_vertices(const Graph& g, int r);

}  // namespace lmds::cuts
