#include "core/metrics.hpp"

#include <cstdio>
#include <stdexcept>

#include "graph/bfs.hpp"
#include "solve/bounds.hpp"
#include "solve/exact_mds.hpp"
#include "solve/exact_mvc.hpp"
#include "solve/tree_dp.hpp"

namespace lmds::core {

namespace {

// Node budget for ground-truth solving inside benches: generous but bounded.
constexpr std::uint64_t kBenchSolverBudget = 1'500'000;

RatioReport make_report(int solution, int reference, bool exact) {
  RatioReport report;
  report.solution_size = solution;
  report.reference = reference;
  report.exact = exact;
  report.ratio = reference > 0 ? static_cast<double>(solution) / reference : 0.0;
  return report;
}

bool is_forest(const Graph& g) {
  return g.num_edges() == g.num_vertices() - graph::connected_components(g).count;
}

}  // namespace

std::string RatioReport::to_string() const {
  char buffer[64];
  if (exact) {
    std::snprintf(buffer, sizeof buffer, "%d/%d = %.2f", solution_size, reference, ratio);
  } else {
    std::snprintf(buffer, sizeof buffer, "%d/>=%d <= %.2f", solution_size, reference, ratio);
  }
  return buffer;
}

RatioReport measure_mds_ratio(const Graph& g, std::span<const Vertex> solution) {
  const int size = static_cast<int>(solution.size());
  if (is_forest(g)) {
    return make_report(size, solve::tree_mds_size(g), true);
  }
  try {
    return make_report(size, static_cast<int>(solve::exact_mds(g, kBenchSolverBudget).size()),
                       true);
  } catch (const std::runtime_error&) {
    return make_report(size, solve::mds_lower_bound(g), false);
  }
}

RatioReport measure_mvc_ratio(const Graph& g, std::span<const Vertex> solution) {
  const int size = static_cast<int>(solution.size());
  // The VC branch & bound has no budget hook; its matching bound keeps it
  // fast on the bench families, all of which are sparse.
  if (g.num_vertices() <= 400) {
    return make_report(size, solve::mvc_size(g), true);
  }
  return make_report(size, solve::mvc_lower_bound(g), false);
}

}  // namespace lmds::core
