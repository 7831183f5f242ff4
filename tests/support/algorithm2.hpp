#pragma once
// Algorithm 2 (Theorem 4.3): the class-agnostic variant. The caller supplies
// an asymptotic dimension d and a control function f for the class of the
// input graph; the radii become m3.2 = f(5)+2 and m3.3 = f(11)+5, the ratio
// becomes c3.2(d) + c3.3(d) + 1, and no knowledge of the excluded K_{2,t} is
// needed (the round complexity silently depends on the largest K_{2,t} minor
// of the input, per the paper). It is Algorithm 1 run with other radii and
// no solver is registered for it, so it lives outside the library, in
// lmds_test_support.

#include <functional>

#include "core/algorithm1.hpp"

namespace lmds::core {

/// A control function r -> f(r) witnessing asymptotic dimension d.
using ControlFn = std::function<int(int)>;

/// Configuration of Algorithm 2.
struct Algorithm2Config {
  int d = 1;      ///< asymptotic dimension of the input's class
  ControlFn f;    ///< its control function
  bool twin_removal = true;
};

/// Centralized execution of Algorithm 2: Algorithm 1's pipeline and
/// diagnostics, only the radii differ.
SolverOutput algorithm2(const Graph& g, const Algorithm2Config& cfg);

/// LOCAL execution of Algorithm 2 through the message-passing simulator.
SolverOutput algorithm2_local(const local::Network& net, const Algorithm2Config& cfg);

/// The ratio guaranteed by Theorem 4.3 for dimension d.
int algorithm2_ratio(int d);

}  // namespace lmds::core
