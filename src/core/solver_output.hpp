#pragma once
// The one shape of a solver's answer: the solution plus the Diagnostics of
// the run. The core entry points (Algorithm 1 and its MVC variant, the
// Theorem 4.4 rules) return it, the registry's adapters return it
// unchanged, and api re-exports both types (api/api.hpp).

#include <vector>

#include "graph/graph.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Vertex;

/// Execution detail common to every solver. Fields a solver has nothing to
/// say about keep their zero/empty defaults.
struct Diagnostics {
  int rounds = -1;  ///< model-level LOCAL rounds; -1 = centralized-only solver
  local::TrafficStats traffic;    ///< measured iff traffic_measured
  bool traffic_measured = false;  ///< true iff the run went through the simulator
  // Algorithm-1 family detail:
  int twin_classes = 0;                  ///< |V(G⁻)| (MDS pipeline only)
  std::vector<Vertex> one_cuts;          ///< X, input indices
  std::vector<Vertex> two_cut_vertices;  ///< I (MDS: interesting) or all 2-cut vertices (MVC)
  std::vector<Vertex> brute_forced;      ///< step-3 additions
  int residual_components = 0;
  int max_residual_diameter = 0;  ///< Lemma 4.2 quantity (measured)

  friend bool operator==(const Diagnostics&, const Diagnostics&) = default;
};

/// A solver's answer: the solution in input-graph indices (the core entry
/// points sort it; the registry sorts every adapter's) and the diagnostics
/// of the run that found it.
struct SolverOutput {
  std::vector<Vertex> solution;
  Diagnostics diag;
};

}  // namespace lmds::core
