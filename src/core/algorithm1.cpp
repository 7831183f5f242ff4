// Algorithm 1 and its vertex-cover variant (end of §4): the same three steps
// on a graph g. Steps 1-2 select X, the m3.2-local 1-cuts, and a second cut
// set (the m3.3-interesting vertices for MDS, every vertex of an m3.3-local
// minimal 2-cut for MVC); step 3 brute-forces each residual component. Only
// MDS removes true twins first.

#include "core/algorithm1.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/bfs.hpp"
#include "graph/ops.hpp"
#include "local/view.hpp"
#include "solve/exact_mds.hpp"
#include "solve/exact_mvc.hpp"

namespace lmds::core {

namespace {

enum class Problem { kMds, kMvc };

struct CutSets {
  std::vector<Vertex> one_cuts;  ///< X
  std::vector<Vertex> second;    ///< I (MDS) or the 2-cut vertices (MVC)
};

std::vector<Vertex> sorted_union(std::vector<Vertex> a, std::span<const Vertex> b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

// The radius of the one view gather that serves steps 1-2, max(r1, 2·r2).
// Algorithm1Config::check() keeps 2·r2 and the round count below INT_MAX.
int view_radius(const Algorithm1Config& cfg) {
  return std::max(cfg.effective_radius1(), 2 * cfg.effective_radius2());
}

// Steps 1-2. The centralized run (net == nullptr) calls the whole-graph
// functions, which run one cuts::LocalCutKernel over each unordered 2-cut
// pair once. The LOCAL run gathers one view per node of net, whose topology
// is g, measures the gather's traffic into diag, and applies the per-vertex
// rules to the views, one kernel per view.
CutSets cut_steps(const Graph& g, const local::Network* net, const Algorithm1Config& cfg,
                  Problem problem, int threads, Diagnostics& diag) {
  const int r1 = cfg.effective_radius1();
  const int r2 = cfg.effective_radius2();
  if (net == nullptr) {
    return {cuts::local_one_cuts(g, r1), problem == Problem::kMds
                                             ? cuts::interesting_vertices(g, r2)
                                             : cuts::vertices_in_local_two_cuts(g, r2)};
  }
  // One view gather serves both steps. Radius max(r1, 2*r2) guarantees the
  // double balls of every candidate 2-cut partner are complete (see
  // cuts/local_cuts.hpp), but never needs to exceed the graph itself —
  // beyond the diameter the views are the whole graph already.
  const int radius = std::min(view_radius(cfg), g.num_vertices());
  const auto views = local::gather_views(*net, radius, &diag.traffic, threads);
  diag.traffic_measured = true;
  const auto select = [&](bool (*rule)(const Graph&, Vertex, int), int r) {
    return common::parallel_select(g.num_vertices(), threads, [&](Vertex v) {
      const local::BallView& view = views[static_cast<std::size_t>(v)];
      return rule(view.graph, view.centre, std::min(r, radius));
    });
  };
  return {select(cuts::is_local_one_cut, r1),
          select(problem == Problem::kMds ? cuts::is_interesting : cuts::in_local_two_cut, r2)};
}

// A residual component's brute-force picks, or nullopt when the component
// has nothing left to solve.
using Picks = std::optional<std::vector<Vertex>>;

// Step 3: one `solve` per component of g − removed. The solved components
// and their largest diameter (the Lemma 4.2 quantity) go into diag. Returns
// the sorted picks.
template <typename Solve>
std::vector<Vertex> residual_step(const Graph& g, std::span<const Vertex> removed,
                                  Diagnostics& diag, const Solve& solve) {
  std::vector<Vertex> picked;
  for (const auto& component : graph::components_without(g, removed).groups()) {
    const Picks picks = solve(component);
    if (!picks) continue;
    ++diag.residual_components;
    const auto sub = graph::induced_subgraph(g, component);
    diag.max_residual_diameter = std::max(diag.max_residual_diameter, graph::diameter(sub.graph));
    picked.insert(picked.end(), picks->begin(), picks->end());
  }
  return sorted_union(std::move(picked), {});
}

// Model-level rounds after the twin reduction: the view gather for steps 1-2,
// then the leader-based residual resolution.
int cut_and_residual_rounds(const Algorithm1Config& cfg, int max_residual_diameter) {
  return (view_radius(cfg) + 1) + (max_residual_diameter + 3);
}

SolverOutput run_mds(const Graph& input, const local::Network* net, const Algorithm1Config& cfg,
                     int threads) {
  cfg.check();
  SolverOutput result;
  // Step 0, once per run: the true-twin reduction (2 rounds in the model).
  // The LOCAL run's reduced network keeps each representative's id.
  graph::TwinReduction reduction;
  std::optional<local::Network> reduced_net;
  const Graph* g = &input;
  if (cfg.twin_removal) {
    reduction = graph::remove_true_twins(input);
    g = &reduction.reduced.graph;
    if (net != nullptr) {
      std::vector<local::NodeId> ids;
      for (Vertex rep : reduction.reduced.to_parent) ids.push_back(net->id_of(rep));
      net = &reduced_net.emplace(*g, std::move(ids));
    }
  }
  result.diag.twin_classes = g->num_vertices();

  const CutSets cut = cut_steps(*g, net, cfg, Problem::kMds, threads, result.diag);
  const std::vector<Vertex> s0 = sorted_union(cut.one_cuts, cut.second);

  // Dominated = N[S0]. Step 3 removes U, the dominated vertices with every
  // neighbour dominated; U contains S0.
  std::vector<char> dominated(static_cast<std::size_t>(g->num_vertices()), 0);
  for (Vertex v : s0) {
    dominated[static_cast<std::size_t>(v)] = 1;
    for (Vertex w : g->neighbors(v)) dominated[static_cast<std::size_t>(w)] = 1;
  }
  const auto is_dominated = [&](Vertex v) { return dominated[static_cast<std::size_t>(v)] != 0; };
  std::vector<Vertex> removed;
  for (Vertex v = 0; v < g->num_vertices(); ++v) {
    const auto nbrs = g->neighbors(v);
    if (is_dominated(v) && std::all_of(nbrs.begin(), nbrs.end(), is_dominated)) {
      removed.push_back(v);
    }
  }
  // Each component's optimal B-dominating set, B its undominated vertices.
  const auto b_domination = [&](const std::vector<Vertex>& component) -> Picks {
    std::vector<Vertex> b;
    for (Vertex v : component) {
      if (!is_dominated(v)) b.push_back(v);
    }
    if (b.empty()) return std::nullopt;
    return solve::exact_b_domination(*g, b);
  };
  const std::vector<Vertex> extra = residual_step(*g, removed, result.diag, b_domination);

  // Lift to input indices (a monotone map, so sorted lists stay sorted).
  const auto lift = [&](const std::vector<Vertex>& s) {
    return cfg.twin_removal ? reduction.reduced.lift(s) : s;
  };
  result.solution = lift(sorted_union(s0, extra));
  result.diag.one_cuts = lift(cut.one_cuts);
  result.diag.two_cut_vertices = lift(cut.second);
  result.diag.brute_forced = lift(extra);
  result.diag.rounds = (cfg.twin_removal ? 2 : 0) +
                       cut_and_residual_rounds(cfg, result.diag.max_residual_diameter);
  return result;
}

SolverOutput run_mvc(const Graph& g, const local::Network* net, const Algorithm1Config& cfg,
                     int threads) {
  cfg.check();
  SolverOutput result;
  CutSets cut = cut_steps(g, net, cfg, Problem::kMvc, threads, result.diag);
  const std::vector<Vertex> s0 = sorted_union(cut.one_cuts, cut.second);
  std::vector<char> in_s0(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v : s0) in_s0[static_cast<std::size_t>(v)] = 1;

  // Each component's minimum cover of its uncovered edges: those with both
  // endpoints outside S0, which lie inside the residual components.
  const auto edge_cover = [&](const std::vector<Vertex>& component) -> Picks {
    std::vector<graph::Edge> uncovered;
    for (Vertex v : component) {
      for (Vertex w : g.neighbors(v)) {
        if (v < w && !in_s0[static_cast<std::size_t>(w)]) uncovered.push_back({v, w});
      }
    }
    if (uncovered.empty()) return std::nullopt;
    return solve::exact_edge_cover_vertices(g, uncovered);
  };
  std::vector<Vertex> extra = residual_step(g, s0, result.diag, edge_cover);

  result.solution = sorted_union(s0, extra);
  result.diag.one_cuts = std::move(cut.one_cuts);
  result.diag.two_cut_vertices = std::move(cut.second);
  result.diag.brute_forced = std::move(extra);
  result.diag.rounds = cut_and_residual_rounds(cfg, result.diag.max_residual_diameter);
  return result;
}

}  // namespace

void Algorithm1Config::check() const {
  const auto refuse = [](const char* name, const std::string& range, int value) {
    throw std::invalid_argument("parameter '" + std::string(name) + "' must be " + range +
                                ", got " + std::to_string(value));
  };
  if (t < 1 || t > kMaxClassParameter) {
    refuse("t", "in [1, " + std::to_string(kMaxClassParameter) + "]", t);
  }
  const std::string radius_range = "at most " + std::to_string(kMaxRadius);
  if (radius1 > kMaxRadius) refuse("radius1", radius_range, radius1);
  if (radius2 > kMaxRadius) refuse("radius2", radius_range, radius2);
}

SolverOutput algorithm1(const Graph& g, const Algorithm1Config& cfg) {
  return run_mds(g, nullptr, cfg, 1);
}

SolverOutput algorithm1_local(const local::Network& net, const Algorithm1Config& cfg,
                              int threads) {
  return run_mds(net.topology(), &net, cfg, threads);
}

SolverOutput algorithm1_mvc(const Graph& g, const Algorithm1Config& cfg) {
  return run_mvc(g, nullptr, cfg, 1);
}

SolverOutput algorithm1_mvc_local(const local::Network& net, const Algorithm1Config& cfg,
                                  int threads) {
  return run_mvc(net.topology(), &net, cfg, threads);
}

}  // namespace lmds::core
