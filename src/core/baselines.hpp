#pragma once
// The folklore rows of Table 1 plus a KSV-style bounded-expansion baseline.
//
//  * take_all            — 0 rounds, t-approx on K_{1,t}-minor-free graphs
//                          (footnote 4: MDS >= n/(Δ+1) and Δ <= t-1);
//  * tree_degree_rule    — 2 rounds, 3-approx on trees (footnote 3: all
//                          vertices of degree >= 2, with small-component
//                          fixups);
//  * ksv_style           — an O(1)-round adaptation of Kublenz–Siebertz–
//                          Vigny [18] for classes of bounded expansion:
//                          take every vertex whose closed neighbourhood
//                          cannot be dominated by <= k other vertices, then
//                          greedily fix the leftovers. Stands in for the
//                          K_t / K_{s,t} rows of Table 1 (see
//                          docs/REPRODUCTION.md, note 6).

#include <vector>

#include "graph/graph.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Graph;
using graph::Vertex;

/// All vertices. 0 rounds; t-approximate on K_{1,t}-minor-free graphs.
std::vector<Vertex> take_all(const Graph& g);

/// Folklore tree rule: vertices of degree >= 2; a vertex of a component of
/// one or two vertices joins iff it has the smaller id. 2 rounds (the
/// degree is learned in round one, the pendant fixup in round two);
/// 3-approximate on trees with >= 3 vertices. `threads` shards the
/// per-vertex rule (<= 0 picks hardware_concurrency); output is
/// bit-identical for any thread count.
std::vector<Vertex> tree_degree_rule(const Graph& g, int threads = 1);

/// KSV-style rule with domination threshold k:
///   X  = { v : no set of <= k vertices other than v dominates N[v] },
///   then every vertex undominated by X adds the neighbour (or itself)
///   covering the most undominated vertices (min id tie-break).
/// Constant rounds; constant ratio on classes of bounded expansion with
/// suitable k (k = 2∇1+1 in [18]). `threads` shards the per-vertex gamma
/// tests and nominations into slot arrays; the sequential merge keeps the
/// output bit-identical for any thread count.
std::vector<Vertex> ksv_style(const Graph& g, int k, int threads = 1);

/// gamma(v) of §5.5: the minimum number of vertices other than v needed to
/// dominate N[v]; returns a value > cap (specifically cap+1) when more than
/// `cap` are needed. Isolated vertices return cap+1 (nothing else can cover
/// them).
int gamma(const Graph& g, Vertex v, int cap);

}  // namespace lmds::core
