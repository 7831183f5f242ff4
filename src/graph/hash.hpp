#pragma once
// 64-bit content address of a graph's exact labelled structure — the
// serving layer's graph handle ("g" + 16 hex digits), response-cache key
// component and routing key. One definition, written out only here:
//
//   h(G)      = T_n(n) + Σ over edges {u < v} of T_e(u, v)     (mod 2^64)
//   T_n(n)    = mix64(K ^ (2^63 | n))
//   T_e(u, v) = mix64(K ^ (u·2^32 + v))
//
// mix64 is a bijection and no edge code u·2^32 + v (0 ≤ u < v < 2^31) has
// bit 63 set, so no edge term is ever a vertex-count term. Two Graph objects
// equal under operator== hash equal; a change of vertex count or of any
// edge changes the hash unless 64-bit sums collide. It is NOT an
// isomorphism invariant: relabelling a graph changes its hash.
//
// The sum is edge-additive (an incremental hash in the sense of Bellare and
// Micciancio, EUROCRYPT 1997): a child derived by edge edits is addressed
// from its parent's hash plus the terms of the edited edges
// (patched_hash), in O(edit) rather than O(n + m), and the terms of a
// fresh graph have no serial dependency. K is fixed in the source, so the
// hash is not collision-resistant against chosen inputs (Wagner's
// generalized birthday search finds a collision of such a sum in about
// 2^23 work). The graph store compares the graph on every hit, so a
// collision is refused there (src/api/graph_store.hpp); the response cache
// keeps its 64-bit, non-adversarial contract (src/api/cache.hpp).

#include <cstdint>
#include <span>

#include "graph/graph.hpp"

namespace lmds::graph {

/// One splitmix64 avalanche step (a bijection on 64 bits) — exposed so
/// cache-key composition and the hash ring reuse the same mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// K: the fixed constant both terms are keyed with.
inline constexpr std::uint64_t kGraphHashKey = 0x6c6d64735f677268ULL;

/// T_n(n): the vertex-count term.
constexpr std::uint64_t vertex_count_term(int n) {
  return mix64(kGraphHashKey ^ (std::uint64_t{1} << 63 |
                                static_cast<std::uint64_t>(static_cast<std::uint32_t>(n))));
}

/// T_e(u, v) of the edge {u, v}, u < v.
constexpr std::uint64_t edge_term(Vertex u, Vertex v) {
  return mix64(kGraphHashKey ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32 |
                                static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))));
}

/// The terms of v's edges to higher neighbours, for a sorted, duplicate-free
/// row of v: summed over every row, each edge is counted once.
std::uint64_t row_terms(Vertex v, std::span<const Vertex> sorted_neighbors);

/// h(G) of the file comment. Deterministic across runs and platforms.
std::uint64_t graph_hash(const Graph& g);

/// h of the child apply_patch derives from a parent whose hash is
/// `parent_hash`: the count term swapped from `parent_n` to `child_n`, the
/// terms of `removed` subtracted and those of `added` added. Both lists are
/// apply_patch's normalized ones (u < v, each edge once, every removed
/// edge present in the parent and every added one absent). O(edit).
std::uint64_t patched_hash(std::uint64_t parent_hash, int parent_n, int child_n,
                           std::span<const Edge> added, std::span<const Edge> removed);

}  // namespace lmds::graph
