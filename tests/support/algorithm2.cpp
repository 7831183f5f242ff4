#include "support/algorithm2.hpp"

#include <stdexcept>

namespace lmds::core {

SolverOutput algorithm2(const Graph& g, const Algorithm2Config& cfg) {
  if (!cfg.f) throw std::invalid_argument("algorithm2: control function required");
  Algorithm1Config inner;
  inner.radius1 = cfg.f(5) + 2;
  inner.radius2 = cfg.f(11) + 5;
  inner.twin_removal = cfg.twin_removal;
  return algorithm1(g, inner);
}

SolverOutput algorithm2_local(const local::Network& net, const Algorithm2Config& cfg) {
  if (!cfg.f) throw std::invalid_argument("algorithm2_local: control function required");
  Algorithm1Config inner;
  inner.radius1 = cfg.f(5) + 2;
  inner.radius2 = cfg.f(11) + 5;
  inner.twin_removal = cfg.twin_removal;
  return algorithm1_local(net, inner);
}

int algorithm2_ratio(int d) {
  const PaperConstants constants{.t = 2, .d = d};
  return constants.derived_ratio();
}

}  // namespace lmds::core
