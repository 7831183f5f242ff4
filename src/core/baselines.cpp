#include "core/baselines.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "graph/graph.hpp"

namespace lmds::core {

namespace {

std::size_t at(int i) { return static_cast<std::size_t>(i); }

}  // namespace

bool take_all_joins(const Graph& /*g*/, Vertex /*v*/) { return true; }

std::vector<Vertex> take_all(const Graph& g) {
  return common::parallel_select(g.num_vertices(), 1,
                                 [&](Vertex v) { return take_all_joins(g, v); });
}

bool tree_degree_rule_joins(const Graph& g, Vertex v) {
  const int deg = g.degree(v);
  if (deg >= 2 || deg == 0) return true;
  // Pendant: joins only when its single neighbour is also pendant (a K2
  // component) and v carries the smaller id.
  const Vertex u = g.neighbors(v)[0];
  return g.degree(u) == 1 && v < u;
}

std::vector<Vertex> tree_degree_rule(const Graph& g, int threads) {
  return common::parallel_select(g.num_vertices(), threads,
                                 [&](Vertex v) { return tree_degree_rule_joins(g, v); });
}

int GammaWorkspace::gamma(const Graph& g, Vertex v, int cap) {
  if (!g.has_vertex(v)) throw std::invalid_argument("gamma: vertex out of range");
  if (cap == std::numeric_limits<int>::max()) throw std::invalid_argument("gamma: cap is INT_MAX");
  // Every cover has >= 1 member (v needs a neighbour) and all of N(v) is
  // one, so only sizes 1..min(cap, deg v) need a search; an isolated vertex
  // has none and answers cap + 1.
  const auto nb = g.neighbors(v);
  const int deg = static_cast<int>(nb.size());
  const int limit = std::min(cap, deg);
  if (limit < 1) return cap + 1;

  // Targets 0..deg-1 are nb[i] and target deg is v. The candidates covering
  // nb[i] are nb[i] itself and N(nb[i]) \ {v}; those covering v are N(v).
  // Together they are N^2[v] \ {v}, each slotted on first sight.
  targets_ = deg + 1;
  slots_.begin(g.num_vertices());
  const auto slot = [&](Vertex c) {
    if (!slots_.seen(c)) slots_.mark(c, static_cast<int>(slots_.visited().size()));
    return slots_.dist(c);
  };
  by_target_.clear();
  target_offset_.resize(at(targets_) + 1);
  for (int i = 0; i < deg; ++i) {
    const Vertex u = nb[at(i)];
    target_offset_[at(i)] = static_cast<int>(by_target_.size());
    by_target_.push_back(slot(u));
    for (Vertex w : g.neighbors(u)) {
      if (w != v) by_target_.push_back(slot(w));
    }
  }
  target_offset_[at(deg)] = static_cast<int>(by_target_.size());
  for (Vertex u : nb) by_target_.push_back(slots_.dist(u));
  target_offset_[at(targets_)] = static_cast<int>(by_target_.size());

  // The transpose, per candidate the targets it covers, by a counting sort
  // whose offsets serve as fill cursors and then shift back by one slot.
  const int candidates = static_cast<int>(slots_.visited().size());
  candidate_offset_.assign(at(candidates) + 1, 0);
  for (int c : by_target_) ++candidate_offset_[at(c) + 1];
  max_cover_ = 0;
  for (int c = 0; c < candidates; ++c) {
    max_cover_ = std::max(max_cover_, candidate_offset_[at(c) + 1]);
    candidate_offset_[at(c) + 1] += candidate_offset_[at(c)];
  }
  by_candidate_.resize(by_target_.size());
  for (int t = 0; t < targets_; ++t) {
    for (int i = target_offset_[at(t)]; i < target_offset_[at(t) + 1]; ++i) {
      by_candidate_[at(candidate_offset_[at(by_target_[at(i)])]++)] = t;
    }
  }
  std::copy_backward(candidate_offset_.begin(), candidate_offset_.end() - 2,
                     candidate_offset_.end() - 1);
  candidate_offset_[0] = 0;

  covered_.assign(at(targets_), 0);
  uncovered_ = targets_;
  packed_.assign(at(candidates), 0);
  frames_.resize(at(limit) + 1);
  // A target with one covering candidate puts it in every cover.
  int forced = 0;
  for (int t = 0; t < targets_; ++t) {
    if (covering(t) == 1 && covered_[at(t)] == 0) {
      choose(by_target_[at(target_offset_[at(t)])], +1);
      ++forced;
    }
  }
  if (uncovered_ == 0) return forced <= limit ? forced : cap + 1;
  // Search the rest from the larger of the two lower bounds on its size.
  const int first = forced + std::max((uncovered_ + max_cover_ - 1) / max_cover_,
                                      packing_bound(limit - forced));
  for (int size = first; size <= limit; ++size) {
    if (cover_within(size - forced)) return size;
  }
  return cap + 1;
}

bool GammaWorkspace::cover_within(int size) {
  // Iterative depth-first search: frames_[d] branches over the candidates
  // covering depth d's pivot, and frames_[d].chosen is the one taken. A
  // search that fails has undone every choice; one that succeeds ends the
  // gamma() call, whose next run resets the counts.
  enter(0, size);  // opens: gamma() returned when nothing was left to cover
  int depth = 0;
  while (true) {
    Frame& f = frames_[at(depth)];
    if (f.chosen >= 0) choose(f.chosen, -1);
    if (f.next == f.end) {
      f.chosen = -1;
      if (depth == 0) return false;
      --depth;
      continue;
    }
    f.chosen = by_target_[at(f.next++)];
    choose(f.chosen, +1);
    const Step below = enter(depth + 1, size - depth - 1);
    if (below == Step::Found) return true;
    if (below == Step::Open) ++depth;
  }
}

GammaWorkspace::Step GammaWorkspace::enter(int depth, int budget) {
  if (uncovered_ == 0) return Step::Found;
  // Both bounds already hold at depth 0, where gamma() started its sizes.
  // At budget 1 the branches themselves are the packing test.
  if (depth > 0 && (uncovered_ > static_cast<long long>(budget) * max_cover_ ||
                    (budget > 1 && packing_bound(budget) > budget))) {
    return Step::Dead;
  }
  // Branch on the uncovered target with the fewest covering candidates.
  int pivot = -1;
  for (int t = 0; t < targets_; ++t) {
    if (covered_[at(t)] == 0 && (pivot < 0 || covering(t) < covering(pivot))) pivot = t;
  }
  frames_[at(depth)] = {target_offset_[at(pivot)], target_offset_[at(pivot) + 1], -1};
  return Step::Open;
}

int GammaWorkspace::packing_bound(int budget) {
  // Uncovered targets whose covering lists are pairwise disjoint each need
  // a candidate of their own. Stops once the count exceeds `budget`.
  int packed = 0;
  for (int t = 0; t < targets_ && packed <= budget; ++t) {
    if (covered_[at(t)] != 0) continue;
    const auto begin = by_target_.begin() + target_offset_[at(t)];
    const auto end = by_target_.begin() + target_offset_[at(t) + 1];
    if (std::any_of(begin, end, [&](int c) { return packed_[at(c)] != 0; })) continue;
    for (auto it = begin; it != end; ++it) {
      packed_[at(*it)] = 1;
      packed_list_.push_back(*it);
    }
    ++packed;
  }
  for (int c : packed_list_) packed_[at(c)] = 0;
  packed_list_.clear();
  return packed;
}

void GammaWorkspace::choose(int c, int delta) {
  for (int i = candidate_offset_[at(c)]; i < candidate_offset_[at(c) + 1]; ++i) {
    int& count = covered_[at(by_candidate_[at(i)])];
    if (delta > 0 ? count++ == 0 : --count == 0) uncovered_ -= delta;
  }
}

int gamma(const Graph& g, Vertex v, int cap) {
  GammaWorkspace workspace;
  return workspace.gamma(g, v, cap);
}

std::vector<Vertex> ksv(const Graph& g, int k, std::span<const Vertex> targets, int threads) {
  // One BFS lists the vertices in level order, so those within distance d of
  // the targets are a prefix of its visit list. Each pass writes its own
  // slots over the prefix the next one reads: membership of a target reads
  // the nominations of N[target] (level <= 1), a nomination reads
  // "dominated" two hops out (<= 3), and "dominated" reads X one hop further
  // (<= 4). The gamma searches are nearly all of the work.
  graph::BfsScratch ball;
  graph::mark_ball(g, targets, 4, ball);
  const std::vector<Vertex>& order = ball.visited();
  const auto within = [&](int d) {
    return static_cast<int>(std::partition_point(order.begin(), order.end(),
                                                 [&](Vertex v) { return ball.dist(v) <= d; }) -
                            order.begin());
  };
  const int n = g.num_vertices();

  std::vector<char> in_x(at(n), 0);
  common::parallel_for(within(4), threads, [&](int begin, int end) {
    GammaWorkspace workspace;
    for (int i = begin; i < end; ++i) {
      const Vertex v = order[at(i)];
      in_x[at(v)] = workspace.gamma(g, v, k) > k ? 1 : 0;
    }
  });

  std::vector<char> dominated(at(n), 0);
  common::parallel_for(within(3), threads, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const Vertex v = order[at(i)];
      const auto nb = g.neighbors(v);
      dominated[at(v)] =
          in_x[at(v)] || std::any_of(nb.begin(), nb.end(), [&](Vertex w) { return in_x[at(w)]; });
    }
  });

  // Cleanup phase: every undominated vertex nominates the member of its
  // closed neighbourhood covering the most undominated vertices (ties to the
  // smaller id) — one more round in the model.
  std::vector<Vertex> nominee(at(n), graph::kNoVertex);
  common::parallel_for(within(1), threads, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const Vertex v = order[at(i)];
      if (dominated[at(v)]) continue;
      Vertex best = v;
      int best_cover = -1;
      const auto consider = [&](Vertex c) {
        int cover = dominated[at(c)] ? 0 : 1;
        for (Vertex w : g.neighbors(c)) {
          if (!dominated[at(w)]) ++cover;
        }
        if (cover > best_cover || (cover == best_cover && c < best)) {
          best_cover = cover;
          best = c;
        }
      };
      consider(v);
      for (Vertex c : g.neighbors(v)) consider(c);
      nominee[at(v)] = best;
    }
  });

  // b joins if it is in X or some member of N[b] nominated it.
  std::vector<Vertex> members = common::parallel_select(within(0), threads, [&](int i) {
    const Vertex b = order[at(i)];
    const auto nb = g.neighbors(b);
    return in_x[at(b)] || nominee[at(b)] == b ||
           std::any_of(nb.begin(), nb.end(), [&](Vertex v) { return nominee[at(v)] == b; });
  });
  for (Vertex& b : members) b = order[at(b)];
  return members;
}

std::vector<Vertex> ksv_style(const Graph& g, int k, int threads) {
  std::vector<Vertex> all(at(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  return ksv(g, k, all, threads);
}

}  // namespace lmds::core
