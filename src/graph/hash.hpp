#pragma once
// 64-bit structural graph fingerprint. Hashes the exact CSR representation
// (vertex count, degrees, sorted adjacency), so two Graph objects hash equal
// iff they are equal under operator== — same labelling, same edges. It is
// NOT an isomorphism invariant: relabelling a graph changes its hash.
//
// Primary consumer: the api response cache, which keys cached Responses on
// (graph_hash, solver, canonicalized options). A 64-bit fingerprint makes
// the cache key cheap to store and compare; the collision probability across
// a cache of millions of distinct graphs is ~2^-40, which the serving layer
// accepts by design (see src/api/cache.hpp).

#include <cstdint>
#include <span>

#include "graph/graph.hpp"

namespace lmds::graph {

/// Fingerprint of the graph's exact structure (splitmix64-mixed stream over
/// n and every adjacency list). Deterministic across runs and platforms.
std::uint64_t graph_hash(const Graph& g);

/// One splitmix64 avalanche step — exposed so cache-key composition can
/// reuse the same mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// graph_hash as a stream, for builders that finish CSR rows one at a time:
/// feed the sorted rows of vertices 0..n-1 in order and value() equals
/// graph_hash of the resulting Graph. graph_hash itself is this loop.
class GraphHasher {
 public:
  // The domain-separation constant keeps an empty graph from hashing to
  // mix64(0) of some other empty structure.
  explicit GraphHasher(int n)
      : h_(mix64(0x6c6d64735f677268ULL ^ static_cast<std::uint64_t>(n))) {}

  void add_row(std::span<const Vertex> sorted_neighbors) {
    // The degree delimits each row, so ({0,1},{}) and ({0},{1}) streams
    // cannot collide by concatenation.
    h_ = mix64(h_ ^ static_cast<std::uint64_t>(sorted_neighbors.size()));
    for (const Vertex u : sorted_neighbors) {
      h_ = mix64(h_ ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
    }
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace lmds::graph
