#include "support/baseline_reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "graph/bfs.hpp"
#include "solve/exact_mds.hpp"

namespace lmds::solve::detail {

using graph::Graph;
using graph::Vertex;

std::vector<Vertex> greedy_mds_reference(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  int remaining = n;
  std::vector<Vertex> result;
  while (remaining > 0) {
    Vertex best = graph::kNoVertex;
    int best_gain = 0;
    for (Vertex v = 0; v < n; ++v) {
      int gain = dominated[static_cast<std::size_t>(v)] ? 0 : 1;
      for (Vertex w : g.neighbors(v)) {
        if (!dominated[static_cast<std::size_t>(w)]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    result.push_back(best);
    if (!dominated[static_cast<std::size_t>(best)]) {
      dominated[static_cast<std::size_t>(best)] = 1;
      --remaining;
    }
    for (Vertex w : g.neighbors(best)) {
      if (!dominated[static_cast<std::size_t>(w)]) {
        dominated[static_cast<std::size_t>(w)] = 1;
        --remaining;
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}


namespace {

// The seed branch-and-bound state for minimum set cover: its greedy bound
// rescans every set for each pick.
class SetCoverSolver {
 public:
  SetCoverSolver(const std::vector<std::vector<int>>& sets, int universe, std::uint64_t max_nodes)
      : sets_(sets), universe_(universe), max_nodes_(max_nodes) {
    covering_.resize(static_cast<std::size_t>(universe));
    for (int s = 0; s < static_cast<int>(sets_.size()); ++s) {
      for (int e : sets_[static_cast<std::size_t>(s)]) {
        if (e < 0 || e >= universe) throw std::invalid_argument("set cover: element out of range");
        covering_[static_cast<std::size_t>(e)].push_back(s);
      }
    }
    for (int e = 0; e < universe; ++e) {
      if (covering_[static_cast<std::size_t>(e)].empty()) {
        throw std::runtime_error("set cover: element " + std::to_string(e) + " uncoverable");
      }
    }
    cover_count_.assign(static_cast<std::size_t>(universe), 0);
    uncovered_ = universe;
  }

  std::vector<int> solve() {
    best_ = greedy();
    std::vector<int> chosen;
    branch(chosen);
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  // Greedy cover used as the initial upper bound (the universe is coverable,
  // so greedy always terminates).
  std::vector<int> greedy() {
    std::vector<char> covered(static_cast<std::size_t>(universe_), 0);
    int remaining = universe_;
    std::vector<int> result;
    while (remaining > 0) {
      int best_set = -1;
      int best_gain = 0;
      for (int s = 0; s < static_cast<int>(sets_.size()); ++s) {
        int gain = 0;
        for (int e : sets_[static_cast<std::size_t>(s)]) {
          if (!covered[static_cast<std::size_t>(e)]) ++gain;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_set = s;
        }
      }
      result.push_back(best_set);
      for (int e : sets_[static_cast<std::size_t>(best_set)]) {
        if (!covered[static_cast<std::size_t>(e)]) {
          covered[static_cast<std::size_t>(e)] = 1;
          --remaining;
        }
      }
    }
    return result;
  }

  void choose(int s, std::vector<int>& chosen) {
    chosen.push_back(s);
    for (int e : sets_[static_cast<std::size_t>(s)]) {
      if (cover_count_[static_cast<std::size_t>(e)]++ == 0) --uncovered_;
    }
  }

  void unchoose(int s, std::vector<int>& chosen) {
    chosen.pop_back();
    for (int e : sets_[static_cast<std::size_t>(s)]) {
      if (--cover_count_[static_cast<std::size_t>(e)] == 0) ++uncovered_;
    }
  }

  // Lower bound: a greedy packing of uncovered elements whose candidate sets
  // are pairwise disjoint — each packed element needs its own set. Mirrors
  // the disjoint-neighbourhood argument of Lemma 5.2.
  int lower_bound() const {
    std::vector<char> used_set(sets_.size(), 0);
    int packed = 0;
    for (int e = 0; e < universe_; ++e) {
      if (cover_count_[static_cast<std::size_t>(e)] > 0) continue;
      bool disjoint = true;
      for (int s : covering_[static_cast<std::size_t>(e)]) {
        if (used_set[static_cast<std::size_t>(s)]) {
          disjoint = false;
          break;
        }
      }
      if (!disjoint) continue;
      for (int s : covering_[static_cast<std::size_t>(e)]) {
        used_set[static_cast<std::size_t>(s)] = 1;
      }
      ++packed;
    }
    return packed;
  }

  void branch(std::vector<int>& chosen) {
    if (++nodes_ > max_nodes_) throw std::runtime_error("set cover: node budget exceeded");
    if (uncovered_ == 0) {
      if (chosen.size() < best_.size()) best_ = chosen;
      return;
    }
    if (chosen.size() + 1 >= best_.size()) return;  // even one more set cannot improve
    if (chosen.size() + static_cast<std::size_t>(lower_bound()) >= best_.size()) return;

    // Pick the uncovered element with the fewest candidate sets.
    int pivot = -1;
    std::size_t fewest = sets_.size() + 1;
    for (int e = 0; e < universe_; ++e) {
      if (cover_count_[static_cast<std::size_t>(e)] > 0) continue;
      const auto k = covering_[static_cast<std::size_t>(e)].size();
      if (k < fewest) {
        fewest = k;
        pivot = e;
      }
    }

    // Branch on which candidate covers the pivot, biggest coverage first.
    std::vector<int> candidates = covering_[static_cast<std::size_t>(pivot)];
    std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
      return sets_[static_cast<std::size_t>(a)].size() > sets_[static_cast<std::size_t>(b)].size();
    });
    for (int s : candidates) {
      choose(s, chosen);
      branch(chosen);
      unchoose(s, chosen);
    }
  }

  const std::vector<std::vector<int>>& sets_;
  int universe_;
  std::uint64_t max_nodes_;
  std::uint64_t nodes_ = 0;
  std::vector<std::vector<int>> covering_;  // element -> sets covering it
  std::vector<int> cover_count_;
  int uncovered_ = 0;
  std::vector<int> best_;
};

}  // namespace

std::vector<int> minimum_set_cover_reference(const std::vector<std::vector<int>>& sets,
                                             int universe, std::uint64_t max_nodes) {
  if (universe == 0) return {};
  SetCoverSolver solver(sets, universe, max_nodes);
  return solver.solve();
}

}  // namespace lmds::solve::detail

namespace lmds::core::detail {

using graph::Graph;
using graph::Vertex;

int gamma_reference(const Graph& g, Vertex v, int cap) {
  // Minimum number of vertices != v covering N[v]: a tiny set-cover over
  // candidates N^2[v] \ {v}, solved exactly and uncapped, then clamped.
  const auto targets = g.closed_neighborhood(v);
  std::vector<Vertex> candidates;
  for (Vertex c : graph::ball(g, v, 2)) {
    if (c != v) candidates.push_back(c);
  }
  try {
    const auto solution = solve::exact_set_domination(g, targets, candidates);
    const int size = static_cast<int>(solution.size());
    return size <= cap ? size : cap + 1;
  } catch (const std::runtime_error&) {
    return cap + 1;  // infeasible: e.g. isolated vertex
  }
}

std::vector<Vertex> ksv_style_reference(const Graph& g, int k, int threads) {
  const int n = g.num_vertices();
  // gamma dominates the runtime (a tiny set-cover per vertex), and each call
  // touches only its own ball.
  const std::vector<Vertex> x = common::parallel_select(
      n, threads, [&](Vertex v) { return gamma_reference(g, v, k) > k; });

  std::vector<char> dominated(static_cast<std::size_t>(n), 0);
  for (Vertex v : x) {
    dominated[static_cast<std::size_t>(v)] = 1;
    for (Vertex w : g.neighbors(v)) dominated[static_cast<std::size_t>(w)] = 1;
  }

  // Cleanup phase: every undominated vertex nominates the member of its
  // closed neighbourhood covering the most undominated vertices (ties to the
  // smaller id) — one more round in the model. Each nominee is computed into
  // the nominator's own slot (reads of `dominated` only), then marked
  // sequentially: no write races, same set for any thread count.
  std::vector<Vertex> nominee(static_cast<std::size_t>(n), graph::kNoVertex);
  common::parallel_for(n, threads, [&](int begin, int end) {
    for (Vertex v = begin; v < end; ++v) {
      if (dominated[static_cast<std::size_t>(v)]) continue;
      Vertex best = v;
      int best_cover = -1;
      for (Vertex c : g.closed_neighborhood(v)) {
        int cover = dominated[static_cast<std::size_t>(c)] ? 0 : 1;
        for (Vertex w : g.neighbors(c)) {
          if (!dominated[static_cast<std::size_t>(w)]) ++cover;
        }
        if (cover > best_cover || (cover == best_cover && c < best)) {
          best_cover = cover;
          best = c;
        }
      }
      nominee[static_cast<std::size_t>(v)] = best;
    }
  });
  std::vector<char> nominated(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex b = nominee[static_cast<std::size_t>(v)];
    if (b != graph::kNoVertex) nominated[static_cast<std::size_t>(b)] = 1;
  }

  std::vector<Vertex> result = x;
  for (Vertex v = 0; v < n; ++v) {
    if (nominated[static_cast<std::size_t>(v)]) result.push_back(v);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace lmds::core::detail
