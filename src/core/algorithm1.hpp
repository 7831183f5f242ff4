#pragma once
// Algorithm 1 (Theorem 4.1): the O_t(1)-round constant-approximation for
// Minimum Dominating Set on K_{2,t}-minor-free graphs, and its Minimum
// Vertex Cover variant (end of Section 4). Both variants run on the one
// pipeline in core/algorithm1.cpp.
//
// Pipeline (on the true-twin-less graph G⁻):
//   1. X  = vertices in m3.2-local minimal 1-cuts;
//   2. I  = m3.3-interesting vertices of m3.3-local minimal 2-cuts;
//   3. U  = dominated vertices with no undominated neighbour,
//      brute-force an optimal B-dominating set per residual component of
//      G⁻ − (X ∪ I ∪ U), where B is the set of still-undominated vertices.
// The MVC variant removes no twins, takes X and *all* vertices of m3.3-local
// minimal 2-cuts (not just interesting ones), then brute-forces a minimum
// cover of the remaining uncovered edges in each residual component.
//
// Every entry point fills Diagnostics with the rounds, the cut sets (I, or
// the 2-cut vertices, in two_cut_vertices), the step-3 additions and the
// residual fields; MDS adds twin_classes; the LOCAL runs add the measured
// traffic.
//
// Radii: the paper's constants m3.2 = f(5)+2 = 43t+2 and m3.3 = f(11)+5 =
// 73t+5 (131 and 224 at t = 3) exceed the diameter of most graphs one runs,
// at which point local cuts coincide with global cuts; they differ only
// beyond diameter 2·m3.3. Such graphs are affordable: C_1000 at t = 3's
// radii takes about 2 s per variant, single thread in Release on a 4 vCPU
// host. The config exposes the radii; radius <= 0 means "use the paper
// constant". Benches sweep the radius to chart the ratio/rounds trade-off
// (bench_paper --row radius_sweep).
//
// Round accounting (model-level, also measured by the simulator path):
//   * twin reduction: 2 rounds;
//   * steps 1-2: one view gather of radius max(r1, 2·r2) -> +1 rounds each;
//   * step 3: leader-based gather over residual components of measured
//     diameter D: D + 3 rounds.

#include <vector>

#include "core/constants.hpp"
#include "core/solver_output.hpp"
#include "graph/graph.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Graph;
using graph::Vertex;

/// Configuration of Algorithm 1.
struct Algorithm1Config {
  /// The ranges check() enforces. Within them no arithmetic on the config
  /// overflows int for any graph that fits in memory: the paper radii
  /// (5r + 18)·t, the view radius max(r1, 2·r2) and the round count.
  static constexpr int kMaxClassParameter = 1 << 16;  ///< 1 <= t <= this
  static constexpr int kMaxRadius = 1 << 24;          ///< radius1, radius2 <= this

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

  /// Throws std::invalid_argument unless t and both radii are in range
  /// (t is checked even when both radii are explicit). Every Algorithm 1
  /// entry point runs it first; the registry maps a violation to
  /// api::RequestError.
  void check() const;
};

/// Centralized execution (mathematically identical to the LOCAL execution;
/// the equivalence is tested).
SolverOutput algorithm1(const Graph& g, const Algorithm1Config& cfg);

/// LOCAL execution: per-node decisions for steps 1-2 are evaluated on
/// message-passing views; step 3 is solved per residual component with
/// leader-based round accounting. `threads` shards the per-node view
/// extraction and cut classification (<= 0 picks hardware_concurrency);
/// output is bit-identical for any thread count. The centralized step-3
/// pipeline stays sequential (see ARCHITECTURE.md, hot path).
SolverOutput algorithm1_local(const local::Network& net, const Algorithm1Config& cfg,
                              int threads = 1);

/// Centralized execution of the MVC variant. Reuses the radius
/// configuration of Algorithm1Config (twin_removal is ignored).
SolverOutput algorithm1_mvc(const Graph& g, const Algorithm1Config& cfg);

/// LOCAL execution of the MVC variant: cut-membership decisions are
/// evaluated on message-passing views (radius max(r1, 2·r2)); the residual
/// edge covers are solved per component with leader-based round accounting.
/// Produces the same cover as the centralized path (tested).
SolverOutput algorithm1_mvc_local(const local::Network& net, const Algorithm1Config& cfg,
                                  int threads = 1);

}  // namespace lmds::core
