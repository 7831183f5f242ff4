#pragma once
// Algorithm 1 (Theorem 4.1): the O_t(1)-round constant-approximation for
// Minimum Dominating Set on K_{2,t}-minor-free graphs.
//
// Pipeline (on the true-twin-less graph G⁻):
//   1. X  = vertices in m3.2-local minimal 1-cuts;
//   2. I  = m3.3-interesting vertices of m3.3-local minimal 2-cuts;
//   3. U  = dominated vertices with no undominated neighbour,
//      brute-force an optimal B-dominating set per residual component of
//      G⁻ − (X ∪ I ∪ U), where B is the set of still-undominated vertices.
//
// Radii: the paper's constants m3.2 = f(5)+2 = 43t+2 and m3.3 = f(11)+5 =
// 73t+5 exceed the diameter of any graph one can simulate, at which point
// local cuts coincide with global cuts. The config therefore exposes the
// radii; radius <= 0 means "use the paper constant". Benches sweep the
// radius to chart the ratio/rounds trade-off (bench_paper --row radius_sweep).
//
// Round accounting (model-level, also measured by the simulator path):
//   * twin reduction: 2 rounds;
//   * steps 1-2: one view gather of radius max(r1, 2·r2) -> +1 rounds each;
//   * step 3: leader-based gather over residual components of measured
//     diameter D: D + 3 rounds.

#include <vector>

#include "core/constants.hpp"
#include "graph/graph.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Graph;
using graph::Vertex;

/// Configuration of Algorithm 1.
struct Algorithm1Config {
  int t = 5;        ///< class parameter (K_{2,t}-minor-free input expected)
  int radius1 = 0;  ///< m3.2 override; <= 0 means paper constant f(5)+2
  int radius2 = 0;  ///< m3.3 override; <= 0 means paper constant f(11)+5
  bool twin_removal = true;  ///< ablation switch (paper step 1)

  int effective_radius1() const {
    return radius1 > 0 ? radius1 : PaperConstants{t}.m32();
  }
  int effective_radius2() const {
    return radius2 > 0 ? radius2 : PaperConstants{t}.m33();
  }
};

/// Everything the analysis benches need about one run.
struct Algorithm1Diagnostics {
  int twin_classes = 0;                 ///< |V(G⁻)|
  std::vector<Vertex> one_cuts;         ///< X, lifted to input indices
  std::vector<Vertex> interesting;      ///< I, lifted to input indices
  std::vector<Vertex> brute_forced;     ///< step-3 additions, input indices
  int residual_components = 0;          ///< components brute-forced
  int max_residual_diameter = 0;        ///< Lemma 4.2 quantity (measured)
  int rounds = 0;                       ///< model-level round count
  local::TrafficStats traffic;          ///< filled by the simulator path
};

/// Result of Algorithm 1.
struct Algorithm1Result {
  std::vector<Vertex> dominating_set;  ///< sorted, input-graph indices
  Algorithm1Diagnostics diag;
};

/// Centralized execution (mathematically identical to the LOCAL execution;
/// the equivalence is tested).
Algorithm1Result algorithm1(const Graph& g, const Algorithm1Config& cfg);

/// LOCAL execution: per-node decisions for steps 1-2 are evaluated on
/// message-passing views; step 3 is solved per residual component with
/// leader-based round accounting. `threads` shards the per-node view
/// extraction and cut classification (<= 0 picks hardware_concurrency);
/// output is bit-identical for any thread count. The centralized step-3
/// pipeline stays sequential (see ARCHITECTURE.md, hot path).
Algorithm1Result algorithm1_local(const local::Network& net, const Algorithm1Config& cfg,
                                  int threads = 1);

}  // namespace lmds::core
