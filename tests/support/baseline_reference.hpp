#pragma once
// Seed implementations of the two server baselines, kept verbatim outside
// the library: greedy_mds rescans every vertex for each pick, and each gamma
// call runs an uncapped set-cover search that maps targets through an
// n-sized array and allocates its ball. They are the differential baselines
// the rewrites (solve::greedy_mds, core::gamma and core::ksv_style) are
// tested (tests/test_hotpath.cpp) and benched (bench/bench_perf.cpp)
// against.

#include <vector>

#include "graph/graph.hpp"

namespace lmds::solve::detail {

std::vector<graph::Vertex> greedy_mds_reference(const graph::Graph& g);

}  // namespace lmds::solve::detail

namespace lmds::core::detail {

int gamma_reference(const graph::Graph& g, graph::Vertex v, int cap);
std::vector<graph::Vertex> ksv_style_reference(const graph::Graph& g, int k, int threads = 1);

}  // namespace lmds::core::detail
