#pragma once
// Sequential approximation baselines: the classical ln(n)-greedy for
// dominating set and the maximal-matching 2-approximation for vertex cover.
// These are centralized reference points the benches print next to the
// paper's LOCAL algorithms.

#include <vector>

#include "graph/graph.hpp"

namespace lmds::solve {

using graph::Graph;
using graph::Vertex;

/// Greedy dominating set: repeatedly add the vertex covering the most
/// still-undominated vertices, the lowest id among ties.
/// (1 + ln n)-approximate. O((n + m) log n): gains are kept exact, and each
/// pick comes off a lazy max-heap.
std::vector<Vertex> greedy_mds(const Graph& g);

/// Greedy vertex cover: both endpoints of a maximal matching. 2-approximate.
std::vector<Vertex> greedy_mvc(const Graph& g);

}  // namespace lmds::solve
