#pragma once
// Deterministic graph generators for tests and benchmarks.
//
// Families relevant to the paper:
//  * theta_chain      — the adversarial K_{2,t}-minor-free family on which the
//                       3-round rule of Theorem 4.4 is Θ(t)-approximate while
//                       Algorithm 1 stays O(1)-approximate (see docs/REPRODUCTION.md);
//  * clique_with_pendants — the Section 4 example showing that vertices in
//                       (non-interesting) 2-cuts can be ω(MDS(G));
//  * random_maximal_outerplanar / apollonian — the outerplanar / planar rows
//                       of Table 1;
//  * random_max_degree — the K_{1,t}-minor-free row (max degree <= t-1).
//
// All random generators take an explicit std::mt19937_64 so every experiment
// is reproducible from its seed — there is no global or unseeded RNG anywhere
// in the library. Each rng-taking generator also has a uint64_t-seed overload
// that owns a fresh engine, so one number fully determines one graph; the
// soak harness (src/soak) records exactly that number per generated graph and
// its repro files replay from it.

#include <cstdint>
#include <random>

#include "graph/graph.hpp"

namespace lmds::graph::gen {

/// Path on n vertices (n >= 1).
Graph path(int n);

/// Cycle on n vertices (n >= 3).
Graph cycle(int n);

/// Star K_{1,n-1}: vertex 0 is the centre (n >= 1).
Graph star(int n);

/// Complete graph K_n.
Graph complete(int n);

/// Complete bipartite K_{s,t}; left part is 0..s-1.
Graph complete_bipartite(int s, int t);

/// rows x cols grid (both >= 1).
Graph grid(int rows, int cols);

/// Wheel: cycle on n-1 vertices plus a hub (vertex 0) adjacent to all.
Graph wheel(int n);

/// Spider / subdivided star: `legs` paths of length `leg_length` sharing an
/// endpoint (vertex 0).
Graph spider(int legs, int leg_length);

/// Random tree built by uniform random attachment (vertex i attaches to a
/// uniform vertex < i).
Graph random_tree(int n, std::mt19937_64& rng);
Graph random_tree(int n, std::uint64_t seed);

/// Caterpillar: spine path of `spine` vertices, each with `legs` pendant
/// leaves.
Graph caterpillar(int spine, int legs);

/// Theta chain: hubs h_0..h_L (L = links); between consecutive hubs lie
/// `parallel` internal vertices each adjacent to both hubs (no hub-hub edge).
/// The result is K_{2, parallel+1}-minor-free (tested in tests/test_minor).
/// Vertices 0..L are the hubs; internals follow.
Graph theta_chain(int links, int parallel);

/// The Section 4 example: K_n plus, for every v != 0, a pendant vertex x_v
/// adjacent to exactly {0, v}. MDS = 1 (vertex 0) yet every clique vertex
/// lies in a minimal 2-cut. Clique vertices are 0..n-1.
Graph clique_with_pendants(int n);

/// Random Apollonian network (planar 3-tree): start from a triangle, insert
/// each new vertex into a uniformly random face. Planar and 3-connected for
/// n >= 4.
Graph apollonian(int n, std::mt19937_64& rng);
Graph apollonian(int n, std::uint64_t seed);

/// Random maximal outerplanar graph: cycle 0..n-1 plus a uniformly random
/// triangulation of the polygon (n >= 3).
Graph random_maximal_outerplanar(int n, std::mt19937_64& rng);
Graph random_maximal_outerplanar(int n, std::uint64_t seed);

/// Random outerplanar graph: maximal outerplanar with each chord kept with
/// probability keep_chord (the outer cycle is always kept, so the result is
/// connected).
Graph random_outerplanar(int n, double keep_chord, std::mt19937_64& rng);
Graph random_outerplanar(int n, double keep_chord, std::uint64_t seed);

/// Random connected graph with maximum degree <= max_degree: a random
/// degree-capped tree plus random extra edges subject to the cap. Such graphs
/// are K_{1,max_degree+1}-minor-free... in the star-minor sense used by the
/// K_{1,t} row of Table 1 (a K_{1,t} *subgraph* needs a degree-t vertex).
Graph random_max_degree(int n, int max_degree, int extra_edges, std::mt19937_64& rng);
Graph random_max_degree(int n, int max_degree, int extra_edges, std::uint64_t seed);

/// Random connected graph: random tree plus `extra_edges` uniform random
/// non-edges.
Graph random_connected(int n, int extra_edges, std::mt19937_64& rng);
Graph random_connected(int n, int extra_edges, std::uint64_t seed);

}  // namespace lmds::graph::gen
