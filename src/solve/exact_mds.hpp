#pragma once
// Exact minimum (B-)dominating set via set-cover branch & bound.
//
// This is the sequential solver behind two different uses in the paper:
//  * the brute-force step of Algorithm 1/2 ("compute an optimal dominating
//    set of all other undominated vertices in each component") — components
//    there have bounded weak diameter (Lemma 4.2) so exact solving is cheap;
//  * the harness's ground truth MDS(G) for measuring true approximation
//    ratios on generated instances.
//
// The engine is a classic set-cover branch & bound: reduce (unit targets,
// subsumed candidates), bound (greedy upper bound, fractional-free lower
// bound from the most-constrained target), branch on the uncovered target
// with the fewest covering candidates.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::solve {

using graph::Graph;
using graph::Vertex;

/// Default branch-and-bound node budget of the searches below.
inline constexpr std::uint64_t kDefaultMaxNodes = 50'000'000;

/// Generic exact minimum set cover. `sets[i]` lists the elements of
/// 0..universe-1 covered by set i. Returns indices of a minimum family whose
/// union is the whole universe. Throws std::runtime_error if no cover exists
/// or if the search exceeds `max_nodes` branch-and-bound nodes.
std::vector<int> minimum_set_cover(const std::vector<std::vector<int>>& sets, int universe,
                                   std::uint64_t max_nodes = kDefaultMaxNodes);

/// Exact minimum dominating set of g. Throws std::runtime_error if the
/// search exceeds `max_nodes` nodes.
std::vector<Vertex> exact_mds(const Graph& g, std::uint64_t max_nodes = kDefaultMaxNodes);

/// |exact_mds(g)| — convenience, the MDS(G) of the paper.
int mds_size(const Graph& g);

/// Exact MDS(G, B): a minimum set S ⊆ N[B] such that every vertex of B is in
/// S or adjacent to S (Section 2). Candidates outside N[B] are never needed.
std::vector<Vertex> exact_b_domination(const Graph& g, std::span<const Vertex> b);

/// Exact minimum S ⊆ candidates dominating all of targets. Throws
/// std::runtime_error when the instance is infeasible or the search exceeds
/// `max_nodes` nodes.
std::vector<Vertex> exact_set_domination(const Graph& g, std::span<const Vertex> targets,
                                         std::span<const Vertex> candidates,
                                         std::uint64_t max_nodes = kDefaultMaxNodes);

}  // namespace lmds::solve
