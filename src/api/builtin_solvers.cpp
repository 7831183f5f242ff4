// Registration of every built-in algorithm with the unified registry. Each
// adapter translates SolveContext -> the algorithm's native call and folds
// its bespoke result struct into the uniform SolverOutput. Outputs are
// bit-identical to the direct calls (asserted by tests/test_api.cpp).

#include "api/registry.hpp"
#include "core/algorithm1.hpp"
#include "core/baselines.hpp"
#include "core/mvc.hpp"
#include "core/theorem44.hpp"
#include "solve/exact_mds.hpp"
#include "solve/exact_mvc.hpp"
#include "solve/greedy.hpp"

namespace lmds::api {

namespace {

const ParamValue& param(const SolveContext& ctx, std::string_view name) {
  const auto it = ctx.params.find(name);
  if (it == ctx.params.end()) {
    // The registry resolves every *declared* parameter; reaching here means
    // an adapter asked for a name its spec does not declare.
    throw std::logic_error("adapter read undeclared parameter '" + std::string(name) + "'");
  }
  return it->second;
}

core::Algorithm1Config algorithm1_config(const SolveContext& ctx) {
  core::Algorithm1Config cfg;
  cfg.t = param(ctx, "t").as_int();
  cfg.radius1 = param(ctx, "radius1").as_int();
  cfg.radius2 = param(ctx, "radius2").as_int();
  if (ctx.params.contains("twin_removal")) {
    cfg.twin_removal = param(ctx, "twin_removal").as_bool();
  }
  return cfg;
}

// A function, not a namespace-scope global: registration may be triggered
// from another TU's static initializer via Registry::instance(), which would
// observe a dynamically-initialized global before its constructor ran.
std::vector<ParamSpec> algorithm1_params() {
  return {
      {"t", 5, "class parameter: input assumed K_{2,t}-minor-free"},
      {"radius1", 4, "m3.2 override; <= 0 means the paper constant 43t+2"},
      {"radius2", 4, "m3.3 override; <= 0 means the paper constant 73t+5"},
  };
}

// Folds the fields the MDS and MVC pipeline diagnostics share into the
// unified shape. `two_cut_vertices` is passed explicitly because the source
// member differs (`interesting` vs `two_cut_vertices`).
template <typename PipelineDiag>
Diagnostics fold_pipeline_diag(PipelineDiag& d, std::vector<Vertex>&& two_cut_vertices,
                               bool local) {
  Diagnostics out;
  out.rounds = d.rounds;
  out.traffic = d.traffic;
  out.traffic_measured = local;
  out.one_cuts = std::move(d.one_cuts);
  out.two_cut_vertices = std::move(two_cut_vertices);
  out.brute_forced = std::move(d.brute_forced);
  out.residual_components = d.residual_components;
  out.max_residual_diameter = d.max_residual_diameter;
  return out;
}

SolverOutput from_algorithm1(core::Algorithm1Result&& result, bool local) {
  SolverOutput out;
  out.solution = std::move(result.dominating_set);
  out.diag = fold_pipeline_diag(result.diag, std::move(result.diag.interesting), local);
  out.diag.twin_classes = result.diag.twin_classes;
  return out;
}

SolverOutput from_theorem44(core::Theorem44Result&& result, bool local) {
  SolverOutput out;
  out.solution = std::move(result.solution);
  out.diag.rounds = result.traffic.rounds;
  if (local) {
    out.diag.traffic = result.traffic;
    out.diag.traffic_measured = true;
  }
  return out;
}

SolverOutput plain(std::vector<Vertex> solution, int rounds) {
  SolverOutput out;
  out.solution = std::move(solution);
  out.diag.rounds = rounds;
  return out;
}

}  // namespace

// Declared (and called) by Registry::instance() in registry.cpp.
void register_builtin_solvers(Registry& reg) {
  reg.add(
      {.name = "algorithm1",
       .problem = Problem::Mds,
       .modes = {Mode::Centralized, Mode::Local},
       .summary = "Algorithm 1 (Thm 4.1): O_t(1)-round constant-approx MDS via local cuts",
       .params = [] {
         auto p = algorithm1_params();
         p.push_back({"twin_removal", true, "paper step 1 ablation switch (false disables)"});
         return p;
       }()},
      [](const SolveContext& ctx) {
        const auto cfg = algorithm1_config(ctx);
        auto result = ctx.local
                          ? core::algorithm1_local(local::Network(ctx.graph), cfg,
                                                   ctx.intra_threads)
                          : core::algorithm1(ctx.graph, cfg);
        return from_algorithm1(std::move(result), ctx.local);
      });

  reg.add(
      {.name = "algorithm1-mvc",
       .problem = Problem::Mvc,
       .modes = {Mode::Centralized, Mode::Local},
       .summary = "Algorithm 1 MVC variant (end of §4): cut vertices + residual edge covers",
       .params = algorithm1_params()},
      [](const SolveContext& ctx) {
        const auto cfg = algorithm1_config(ctx);
        auto result = ctx.local
                          ? core::algorithm1_mvc_local(local::Network(ctx.graph), cfg,
                                                       ctx.intra_threads)
                          : core::algorithm1_mvc(ctx.graph, cfg);
        SolverOutput out;
        out.solution = std::move(result.vertex_cover);
        out.diag = fold_pipeline_diag(result.diag, std::move(result.diag.two_cut_vertices),
                                      ctx.local);
        return out;
      });

  reg.add({.name = "theorem44",
           .problem = Problem::Mds,
           .modes = {Mode::Centralized, Mode::Local},
           .summary = "Theorem 4.4: 3-round (2t-1)-approx MDS (D2 rule on G^-)",
           .params = {},
           // v joins unless a neighbour true-twins or strictly contains it;
           // both tests read N[u] for u in N[v], i.e. ball(v, 2).
           .locality_radius = 2},
          [](const SolveContext& ctx) {
            auto result =
                ctx.local
                    ? core::theorem44_mds_local(local::Network(ctx.graph), ctx.intra_threads)
                    : core::theorem44_mds(ctx.graph, ctx.intra_threads);
            return from_theorem44(std::move(result), ctx.local);
          });

  reg.add({.name = "theorem44-mvc",
           .problem = Problem::Mvc,
           .modes = {Mode::Centralized, Mode::Local},
           .summary = "Theorem 4.4: 3-round t-approx MVC (degree >= 2 rule)",
           .params = {},
           // deg(v) >= 2 joins; an isolated edge elects its smaller endpoint,
           // which needs the neighbour's degree — ball(v, 2).
           .locality_radius = 2},
          [](const SolveContext& ctx) {
            auto result =
                ctx.local
                    ? core::theorem44_mvc_local(local::Network(ctx.graph), ctx.intra_threads)
                    : core::theorem44_mvc(ctx.graph, ctx.intra_threads);
            return from_theorem44(std::move(result), ctx.local);
          });

  reg.add({.name = "greedy",
           .problem = Problem::Mds,
           .modes = {Mode::Centralized},
           .summary = "centralized (1+ln n)-greedy dominating set baseline",
           .params = {}},
          [](const SolveContext& ctx) { return plain(solve::greedy_mds(ctx.graph), -1); });

  reg.add({.name = "exact",
           .problem = Problem::Mds,
           .modes = {Mode::Centralized},
           .summary = "exact minimum dominating set (set-cover branch & bound)",
           .params = {}},
          [](const SolveContext& ctx) { return plain(solve::exact_mds(ctx.graph), -1); });

  reg.add({.name = "exact-mvc",
           .problem = Problem::Mvc,
           .modes = {Mode::Centralized},
           .summary = "exact minimum vertex cover (branch & bound)",
           .params = {}},
          [](const SolveContext& ctx) { return plain(solve::exact_mvc(ctx.graph), -1); });

  // KSV-style rule: the gamma test reads radius-2 balls (3 rounds) and the
  // greedy fixup is one more round — the "4" of bench_paper's table1 row.
  reg.add({.name = "ksv",
           .problem = Problem::Mds,
           .modes = {Mode::Centralized},
           .summary = "KSV-style bounded-expansion rule [18]: gamma(v) > k joins, greedy fixup",
           .params = {{"k", 3, "domination threshold (k = 2*grad+1 in [18])"}},
           // gamma(y) reads ball(y, 2); v's "dominated" flag needs gamma of
           // ball(v, 3), so its nomination is f(ball(v, 5)); membership of b
           // needs the nominations of N[b] — ball(b, 6). The greedy-fixup
           // tie-break compares candidate ids for order only.
           .locality_radius = 6},
          [](const SolveContext& ctx) {
            return plain(
                core::ksv_style(ctx.graph, param(ctx, "k").as_int(), ctx.intra_threads), 4);
          });

  reg.add({.name = "take-all",
           .problem = Problem::Mds,
           .modes = {Mode::Centralized},
           .summary = "all vertices: 0 rounds, t-approx on K_{1,t}-minor-free graphs",
           .params = {},
           .locality_radius = 0},
          [](const SolveContext& ctx) { return plain(core::take_all(ctx.graph), 0); });

  reg.add({.name = "tree-rule",
           .problem = Problem::Mds,
           .modes = {Mode::Centralized},
           .summary = "folklore tree rule: degree >= 2 plus small-component fixups, 2 rounds",
           .params = {},
           // Same shape as theorem44-mvc's rule: the pendant fixup reads the
           // neighbour's degree — ball(v, 2).
           .locality_radius = 2},
          [](const SolveContext& ctx) {
            return plain(core::tree_degree_rule(ctx.graph, ctx.intra_threads), 2);
          });
}

}  // namespace lmds::api
