#pragma once
// Seed implementations of ball-view extraction, kept verbatim outside the
// library: per-vertex GraphBuilder + full-graph BFS + induced_subgraph.
// They are the differential baselines the CSR-native hot path
// (src/local/view.hpp) is tested (tests/test_hotpath.cpp) and benched
// (bench/bench_perf.cpp) against.

#include <vector>

#include "local/view.hpp"

namespace lmds::local::detail {

std::vector<BallView> gather_views_reference(const Network& net, int radius,
                                             TrafficStats* stats = nullptr);
BallView cut_view_reference(const Network& net, Vertex centre, int radius);

}  // namespace lmds::local::detail
