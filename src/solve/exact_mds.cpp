#include "solve/exact_mds.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lmds::solve {

namespace {

// Branch-and-bound state for minimum set cover.
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
  // so greedy always terminates). Each pick is the lowest-index set of
  // maximum gain, its uncovered elements counted with multiplicity. Gains
  // stay exact — an element turning covered lowers the gain of every set
  // holding it — and picks come off a lazy max-heap keyed (gain, -index): a
  // popped entry whose gain is current is the pick, a stale one goes back
  // with its current gain or is dropped at 0. O(Σ|sets| · log |sets|).
  std::vector<int> greedy() const {
    const auto at = [](int i) { return static_cast<std::size_t>(i); };
    std::vector<int> gain(sets_.size());
    std::vector<std::pair<int, int>> heap;  // (gain, -set index)
    for (int s = 0; s < static_cast<int>(sets_.size()); ++s) {
      gain[at(s)] = static_cast<int>(sets_[at(s)].size());
      if (gain[at(s)] > 0) heap.emplace_back(gain[at(s)], -s);
    }
    std::make_heap(heap.begin(), heap.end());
    std::vector<char> covered(at(universe_), 0);
    int remaining = universe_;
    std::vector<int> result;
    while (remaining > 0) {
      std::pop_heap(heap.begin(), heap.end());
      const auto [stored, key] = heap.back();
      heap.pop_back();
      const int s = -key;
      if (gain[at(s)] != stored) {
        if (gain[at(s)] > 0) {
          heap.emplace_back(gain[at(s)], key);
          std::push_heap(heap.begin(), heap.end());
        }
        continue;
      }
      result.push_back(s);
      for (int e : sets_[at(s)]) {
        if (covered[at(e)]) continue;
        covered[at(e)] = 1;
        --remaining;
        for (int t : covering_[at(e)]) --gain[at(t)];
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

std::vector<int> minimum_set_cover(const std::vector<std::vector<int>>& sets, int universe,
                                   std::uint64_t max_nodes) {
  if (universe == 0) return {};
  SetCoverSolver solver(sets, universe, max_nodes);
  return solver.solve();
}

std::vector<Vertex> exact_set_domination(const Graph& g, std::span<const Vertex> targets,
                                         std::span<const Vertex> candidates,
                                         std::uint64_t max_nodes) {
  // Map targets to dense element ids.
  std::vector<int> element(static_cast<std::size_t>(g.num_vertices()), -1);
  int universe = 0;
  for (Vertex t : targets) {
    if (!g.has_vertex(t)) throw std::invalid_argument("exact_set_domination: bad target");
    if (element[static_cast<std::size_t>(t)] == -1) {
      element[static_cast<std::size_t>(t)] = universe++;
    }
  }
  std::vector<std::vector<int>> sets;
  std::vector<Vertex> set_vertex;
  sets.reserve(candidates.size());
  for (Vertex c : candidates) {
    if (!g.has_vertex(c)) throw std::invalid_argument("exact_set_domination: bad candidate");
    std::vector<int> covered;
    for (Vertex w : g.closed_neighborhood(c)) {
      const int e = element[static_cast<std::size_t>(w)];
      if (e != -1) covered.push_back(e);
    }
    if (covered.empty()) continue;  // useless candidate
    sets.push_back(std::move(covered));
    set_vertex.push_back(c);
  }
  const auto picked = minimum_set_cover(sets, universe, max_nodes);
  std::vector<Vertex> result;
  result.reserve(picked.size());
  for (int s : picked) result.push_back(set_vertex[static_cast<std::size_t>(s)]);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<Vertex> exact_b_domination(const Graph& g, std::span<const Vertex> b) {
  // Candidates can be restricted to N[B] without loss (Section 2).
  std::vector<char> in_candidates(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v : b) {
    in_candidates[static_cast<std::size_t>(v)] = 1;
    for (Vertex w : g.neighbors(v)) in_candidates[static_cast<std::size_t>(w)] = 1;
  }
  std::vector<Vertex> candidates;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in_candidates[static_cast<std::size_t>(v)]) candidates.push_back(v);
  }
  return exact_set_domination(g, b, candidates);
}

std::vector<Vertex> exact_mds(const Graph& g, std::uint64_t max_nodes) {
  std::vector<Vertex> all(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  return exact_set_domination(g, all, all, max_nodes);
}

int mds_size(const Graph& g) { return static_cast<int>(exact_mds(g).size()); }

}  // namespace lmds::solve
