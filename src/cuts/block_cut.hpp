#pragma once
// Biconnected components ("blocks"): the input of cuts::PairFilter's block
// test (cuts/local_cuts.hpp).

#include <vector>

#include "graph/graph.hpp"

namespace lmds::cuts {

using graph::Graph;
using graph::Vertex;

/// The maximal biconnected components of g, each a sorted vertex list: bridge
/// edges and isolated vertices are trivial blocks. One iterative Tarjan
/// lowpoint DFS (edge stack), linear time. A vertex lies in two or more
/// blocks iff it is an articulation point.
std::vector<std::vector<Vertex>> biconnected_blocks(const Graph& g);

}  // namespace lmds::cuts
