#pragma once
// Seed implementations of the two server baselines and of the exact set
// cover, kept verbatim outside the library: greedy_mds rescans every vertex
// for each pick, each gamma call runs an uncapped set-cover search that maps
// targets through an n-sized array and allocates its ball, and the set
// cover's greedy upper bound rescans every set for each pick. They are the
// differential baselines the rewrites (solve::greedy_mds, core::gamma,
// core::ksv_style and solve::minimum_set_cover) are tested
// (tests/test_hotpath.cpp) and benched (bench/bench_perf.cpp) against.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lmds::solve::detail {

std::vector<graph::Vertex> greedy_mds_reference(const graph::Graph& g);
std::vector<int> minimum_set_cover_reference(const std::vector<std::vector<int>>& sets,
                                             int universe, std::uint64_t max_nodes);

}  // namespace lmds::solve::detail

namespace lmds::core::detail {

int gamma_reference(const graph::Graph& g, graph::Vertex v, int cap);
std::vector<graph::Vertex> ksv_style_reference(const graph::Graph& g, int k, int threads = 1);

}  // namespace lmds::core::detail
