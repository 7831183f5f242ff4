#pragma once
// Minimum Vertex Cover variant of Algorithm 1 (end of Section 4): take all
// vertices of m3.2-local 1-cuts and *all* vertices of m3.3-local minimal
// 2-cuts (not just interesting ones), then brute-force a minimum cover of
// the remaining uncovered edges in each residual component. No twin removal
// is needed for vertex cover. Both variants run on the one pipeline in
// core/algorithm1.cpp.

#include <vector>

#include "core/algorithm1.hpp"
#include "graph/graph.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

/// Diagnostics of the MVC pipeline.
struct MvcAlgorithm1Diagnostics {
  std::vector<Vertex> one_cuts;
  std::vector<Vertex> two_cut_vertices;
  std::vector<Vertex> brute_forced;
  int residual_components = 0;
  int max_residual_diameter = 0;
  int rounds = 0;
  local::TrafficStats traffic;  ///< filled by the simulator path
};

/// Result of the MVC variant.
struct MvcAlgorithm1Result {
  std::vector<Vertex> vertex_cover;  ///< sorted, input indices
  MvcAlgorithm1Diagnostics diag;
};

/// Centralized execution of the MVC variant of Algorithm 1. Reuses the
/// radius configuration of Algorithm1Config (twin_removal is ignored).
MvcAlgorithm1Result algorithm1_mvc(const Graph& g, const Algorithm1Config& cfg);

/// LOCAL execution: cut-membership decisions are evaluated on
/// message-passing views (radius max(r1, 2·r2)); the residual edge covers
/// are solved per component with leader-based round accounting. Produces
/// the same cover as the centralized path (tested).
MvcAlgorithm1Result algorithm1_mvc_local(const local::Network& net,
                                         const Algorithm1Config& cfg, int threads = 1);

}  // namespace lmds::core
