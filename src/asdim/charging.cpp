#include "asdim/charging.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "graph/ops.hpp"
#include "solve/exact_mds.hpp"

namespace lmds::asdim {

bool closed_neighborhoods_disjoint(const Graph& g,
                                   const std::vector<std::vector<Vertex>>& sets) {
  std::vector<int> owner(static_cast<std::size_t>(g.num_vertices()), -1);
  for (int i = 0; i < static_cast<int>(sets.size()); ++i) {
    for (Vertex v : sets[static_cast<std::size_t>(i)]) {
      for (Vertex w : g.closed_neighborhood(v)) {
        int& slot = owner[static_cast<std::size_t>(w)];
        if (slot != -1 && slot != i) return false;
        slot = i;
      }
    }
  }
  return true;
}

int sum_b_domination(const Graph& g, const std::vector<std::vector<Vertex>>& sets) {
  int total = 0;
  for (const auto& set : sets) {
    total += static_cast<int>(solve::exact_b_domination(g, set).size());
  }
  return total;
}

int charging_certificate(const Graph& g, const Cover& cover, int k) {
  int max_part_sum = 0;
  const int scale = 2 * k + 3;
  graph::BfsScratch scratch;
  std::vector<Vertex> target;
  for (const auto& part : cover.parts) {
    if (part.empty()) continue;
    int part_sum = 0;
    for (const auto& component : graph::r_components(g, part, scale)) {
      graph::ball_of_set_into(g, component, k, scratch, target);
      part_sum += static_cast<int>(solve::exact_b_domination(g, target).size());
    }
    max_part_sum = std::max(max_part_sum, part_sum);
  }
  return max_part_sum;
}

}  // namespace lmds::asdim
