// Tests for the unified lmds::api solver registry: every registered solver
// produces a valid solution over the generator suite, registry output is
// bit-identical to the direct core calls on the same inputs (solutions and
// the whole Diagnostics), and the Request/Response surface (options, modes,
// batching, errors) behaves as documented.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "api/registry.hpp"
#include "core/algorithm1.hpp"
#include "core/baselines.hpp"
#include "core/theorem44.hpp"
#include "ding/generators.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "solve/exact_mds.hpp"
#include "solve/exact_mvc.hpp"
#include "solve/greedy.hpp"
#include "solve/validate.hpp"

namespace lmds::api {
namespace {

using graph::Graph;
using graph::Vertex;

// Small instances from both generator families; kept modest so the exact
// solvers stay fast inside the all-solvers sweep.
std::vector<Graph> generator_suite() {
  std::mt19937_64 rng(20250727);
  std::vector<Graph> gs;
  gs.push_back(graph::gen::path(12));
  gs.push_back(graph::gen::cycle(9));
  gs.push_back(graph::gen::star(7));
  gs.push_back(graph::gen::grid(4, 5));
  gs.push_back(graph::gen::spider(4, 3));
  gs.push_back(graph::gen::theta_chain(4, 4));
  gs.push_back(graph::gen::caterpillar(8, 2));
  gs.push_back(graph::gen::random_tree(30, rng));
  ding::CactusConfig cc;
  cc.pieces = 6;
  cc.t = 5;
  gs.push_back(ding::random_cactus_of_structures(cc, rng));
  return gs;
}

std::vector<Vertex> sorted(std::vector<Vertex> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::string> names_for(Problem problem) {
  std::vector<std::string> out;
  for (const SolverSpec* spec : Registry::instance().specs()) {
    if (spec->problem == problem) out.push_back(spec->name);
  }
  return out;
}

std::string test_name(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

TEST(Registry, EnumeratesAllTenSolvers) {
  const auto names = Registry::instance().names();
  const std::vector<std::string> expected = {
      "algorithm1", "algorithm1-mvc", "exact",    "exact-mvc", "greedy",
      "ksv",        "take-all",       "theorem44", "theorem44-mvc", "tree-rule"};
  for (const auto& name : expected) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << "missing solver: " << name;
  }
  EXPECT_EQ(names.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, SpecsDeclareProblemsAndParams) {
  const auto& reg = Registry::instance();
  EXPECT_EQ(reg.at("algorithm1").problem, Problem::Mds);
  EXPECT_EQ(reg.at("algorithm1-mvc").problem, Problem::Mvc);
  EXPECT_EQ(reg.at("exact-mvc").problem, Problem::Mvc);
  EXPECT_EQ(reg.at("algorithm1").param_default("t"), 5);
  EXPECT_EQ(reg.at("algorithm1").param_default("radius1"), 4);
  EXPECT_EQ(reg.at("ksv").param_default("k"), 3);
  EXPECT_TRUE(reg.at("theorem44").supports(Mode::Local));
  EXPECT_FALSE(reg.at("greedy").supports(Mode::Local));
  EXPECT_THROW((void)reg.at("greedy").param_default("t"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Every registered solver x every generated graph: solution is valid.

class MdsSolverSuite : public testing::TestWithParam<std::string> {};

TEST_P(MdsSolverSuite, DominatesEveryGeneratedGraph) {
  const auto& reg = Registry::instance();
  for (const Graph& g : generator_suite()) {
    Request req;
    req.graph = &g;
    const Response res = reg.run(GetParam(), req);
    EXPECT_TRUE(res.valid) << GetParam() << " invalid on " << g.summary();
    EXPECT_TRUE(solve::is_dominating_set(g, res.solution))
        << GetParam() << " on " << g.summary();
    EXPECT_TRUE(std::is_sorted(res.solution.begin(), res.solution.end()));
    EXPECT_EQ(res.problem, Problem::Mds);
    EXPECT_EQ(res.solver, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllMds, MdsSolverSuite, testing::ValuesIn(names_for(Problem::Mds)),
                         test_name);

class MvcSolverSuite : public testing::TestWithParam<std::string> {};

TEST_P(MvcSolverSuite, CoversEveryGeneratedGraph) {
  const auto& reg = Registry::instance();
  for (const Graph& g : generator_suite()) {
    Request req;
    req.graph = &g;
    const Response res = reg.run(GetParam(), req);
    EXPECT_TRUE(res.valid) << GetParam() << " invalid on " << g.summary();
    EXPECT_TRUE(solve::is_vertex_cover(g, res.solution))
        << GetParam() << " on " << g.summary();
    EXPECT_EQ(res.problem, Problem::Mvc);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMvc, MvcSolverSuite, testing::ValuesIn(names_for(Problem::Mvc)),
                         test_name);

// ---------------------------------------------------------------------------
// Registry output == direct core-call output on identical inputs (no
// adapter changes an algorithm's behaviour).

TEST(Registry, MatchesDirectCallsOnIdenticalInputs) {
  const auto& reg = Registry::instance();
  core::Algorithm1Config cfg;  // the registry defaults: t=5, r1=r2=4
  cfg.t = 5;
  cfg.radius1 = 4;
  cfg.radius2 = 4;

  for (const Graph& g : generator_suite()) {
    Request req;
    req.graph = &g;
    const auto run = [&](const char* name) { return reg.run(name, req).solution; };

    EXPECT_EQ(run("algorithm1"), sorted(core::algorithm1(g, cfg).solution));
    EXPECT_EQ(run("algorithm1-mvc"), sorted(core::algorithm1_mvc(g, cfg).solution));
    EXPECT_EQ(run("theorem44"), sorted(core::theorem44_mds(g).solution));
    EXPECT_EQ(run("theorem44-mvc"), sorted(core::theorem44_mvc(g).solution));
    EXPECT_EQ(run("greedy"), sorted(solve::greedy_mds(g)));
    EXPECT_EQ(run("exact").size(), solve::exact_mds(g).size());
    EXPECT_EQ(run("exact-mvc").size(), solve::exact_mvc(g).size());
    EXPECT_EQ(run("ksv"), sorted(core::ksv_style(g, 3)));
    EXPECT_EQ(run("take-all"), sorted(core::take_all(g)));
    EXPECT_EQ(run("tree-rule"), sorted(core::tree_degree_rule(g)));
  }
}

TEST(Registry, OptionsReachTheAlgorithm) {
  const Graph g = graph::gen::theta_chain(5, 4);
  const auto& reg = Registry::instance();

  Request req;
  req.graph = &g;
  req.options["k"] = 1;
  const auto k1 = reg.run("ksv", req).solution;
  EXPECT_EQ(k1, sorted(core::ksv_style(g, 1)));

  Request areq;
  areq.graph = &g;
  areq.options["t"] = 7;
  areq.options["radius1"] = 3;
  areq.options["radius2"] = 3;
  core::Algorithm1Config acfg;
  acfg.t = 7;
  acfg.radius1 = 3;
  acfg.radius2 = 3;
  EXPECT_EQ(reg.run("algorithm1", areq).solution,
            sorted(core::algorithm1(g, acfg).solution));
}

// ---------------------------------------------------------------------------
// LOCAL execution and traffic measurement through the unified surface.

TEST(Registry, LocalModeMeasuresTrafficAndAgrees) {
  const Graph g = graph::gen::theta_chain(4, 3);
  const auto& reg = Registry::instance();

  for (const char* name : {"theorem44", "theorem44-mvc", "algorithm1", "algorithm1-mvc"}) {
    Request central;
    central.graph = &g;
    Request local = central;
    local.measure_traffic = true;

    const Response c = reg.run(name, central);
    const Response l = reg.run(name, local);
    EXPECT_EQ(c.solution, l.solution) << name << ": LOCAL path diverged from centralized";
    EXPECT_FALSE(c.diag.traffic_measured);
    EXPECT_TRUE(l.diag.traffic_measured);
    EXPECT_GT(l.diag.traffic.rounds, 0) << name;
    EXPECT_GT(l.diag.traffic.messages, 0u) << name;
  }
}

// The whole Diagnostics the registry serves for the four LOCAL-capable
// solvers, centralized and LOCAL, against expectations derived here:
// traffic is measured iff the run was LOCAL, only algorithm1 reports twin
// classes, a centralized Theorem 4.4 run reports its 3 rounds with no
// traffic, and Algorithm 1's cut sets, residual fields, rounds and traffic
// are the core call's.
TEST(Registry, ServesTheWholeDiagnostics) {
  const auto& reg = Registry::instance();
  core::Algorithm1Config cfg;  // the registry defaults: t=5, r1=r2=4
  cfg.radius1 = 4;
  cfg.radius2 = 4;
  const std::vector<Graph> graphs = {
      graph::gen::theta_chain(4, 3), graph::gen::random_maximal_outerplanar(24, 31),
      graph::disjoint_union(graph::gen::random_tree(20, 31), graph::gen::complete(4))};

  for (const Graph& g : graphs) {
    const local::Network net(g);
    for (const bool local_run : {false, true}) {
      Request req;
      req.graph = &g;
      req.measure_traffic = local_run;
      const auto label = [&] { return g.summary() + (local_run ? " LOCAL" : " centralized"); };

      const auto pipeline = [&](const Diagnostics& d) {
        Diagnostics want;
        want.rounds = d.rounds;
        want.traffic = local_run ? d.traffic : local::TrafficStats{};
        want.traffic_measured = local_run;
        want.one_cuts = d.one_cuts;
        want.two_cut_vertices = d.two_cut_vertices;
        want.brute_forced = d.brute_forced;
        want.residual_components = d.residual_components;
        want.max_residual_diameter = d.max_residual_diameter;
        return want;
      };
      const auto mds = local_run ? core::algorithm1_local(net, cfg) : core::algorithm1(g, cfg);
      Diagnostics want = pipeline(mds.diag);
      want.twin_classes = graph::remove_true_twins(g).num_classes;
      EXPECT_EQ(reg.run("algorithm1", req).diag, want) << label();
      const auto mvc =
          local_run ? core::algorithm1_mvc_local(net, cfg) : core::algorithm1_mvc(g, cfg);
      EXPECT_EQ(reg.run("algorithm1-mvc", req).diag, pipeline(mvc.diag)) << label();

      const auto rule = [&](const local::TrafficStats& traffic) {
        Diagnostics expected;
        expected.rounds = local_run ? traffic.rounds : 3;
        expected.traffic = local_run ? traffic : local::TrafficStats{};
        expected.traffic_measured = local_run;
        return expected;
      };
      EXPECT_EQ(reg.run("theorem44", req).diag, rule(core::theorem44_mds_local(net).diag.traffic))
          << label();
      EXPECT_EQ(reg.run("theorem44-mvc", req).diag, rule(core::theorem44_mvc_local(net).diag.traffic))
          << label();
    }
  }
}

TEST(Registry, RatioMeasurementOnRequest) {
  const Graph g = graph::gen::theta_chain(4, 3);
  Request req;
  req.graph = &g;
  req.measure_ratio = true;
  const Response res = Registry::instance().run("exact", req);
  ASSERT_TRUE(res.ratio_measured);
  EXPECT_TRUE(res.ratio.exact);
  EXPECT_DOUBLE_EQ(res.ratio.ratio, 1.0);  // exact solver is ratio 1 by definition
}

// ---------------------------------------------------------------------------
// Batch entry point.

TEST(Registry, RunBatchAnswersEachGraph) {
  const auto graphs = generator_suite();
  Request req;  // graph deliberately unset: run_batch supplies each graph
  const auto responses =
      Registry::instance().run_batch("theorem44", {graphs.data(), graphs.size()}, req);
  ASSERT_EQ(responses.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(responses[i].valid);
    EXPECT_EQ(responses[i].solution, sorted(core::theorem44_mds(graphs[i]).solution));
  }
}

// ---------------------------------------------------------------------------
// Error surface.

TEST(Registry, RejectsBadRequests) {
  const Graph g = graph::gen::path(5);
  const auto& reg = Registry::instance();

  // All request-validation failures throw RequestError (a subclass of
  // std::invalid_argument), so callers can tell them apart from
  // solver-internal exceptions.
  Request req;
  req.graph = &g;
  EXPECT_THROW((void)reg.run("no-such-solver", req), RequestError);
  EXPECT_THROW((void)reg.at("no-such-solver"), RequestError);
  EXPECT_EQ(reg.find("no-such-solver"), nullptr);

  Request no_graph;
  EXPECT_THROW((void)reg.run("greedy", no_graph), RequestError);

  Request bad_option;
  bad_option.graph = &g;
  bad_option.options["radius9"] = 1;
  EXPECT_THROW((void)reg.run("algorithm1", bad_option), RequestError);
  EXPECT_THROW((void)reg.run("algorithm1", bad_option), std::invalid_argument);

  Request traffic_on_centralized;
  traffic_on_centralized.graph = &g;
  traffic_on_centralized.measure_traffic = true;
  EXPECT_THROW((void)reg.run("greedy", traffic_on_centralized), RequestError);

  // Option values whose arithmetic would overflow int, or a class parameter
  // t < 1, are the request's fault too: the view radius 2·r2, the paper
  // radii (5r + 18)·t, KSV's cap k + 1 (reached on an isolated vertex).
  const auto solve_with = [&](const std::string& solver, const Graph& graph, Options options) {
    Request req;
    req.graph = &graph;
    req.options = std::move(options);
    return reg.run(solver, req);
  };
  const Options bad_algorithm1[] = {
      {{"radius2", 2'000'000'000}},
      {{"radius1", (1 << 24) + 1}},
      {{"t", 30'000'000}, {"radius1", 0}, {"radius2", 0}},
      {{"t", -3}, {"radius1", 0}, {"radius2", 0}},
      {{"t", 0}},  // explicit radii do not read t, but t < 1 is still refused
  };
  for (const std::string solver : {"algorithm1", "algorithm1-mvc"}) {
    for (const Options& options : bad_algorithm1) {
      EXPECT_THROW((void)solve_with(solver, g, options), RequestError) << solver;
    }
  }
  const Graph isolated = graph::disjoint_union(graph::gen::path(3), graph::gen::path(1));
  EXPECT_THROW((void)solve_with("ksv", isolated, {{"k", 2'147'483'647}}), RequestError);
  EXPECT_THROW((void)solve_with("ksv", isolated, {{"k", -1}}), RequestError);
  // The ends of each range are accepted.
  EXPECT_TRUE(solve_with("algorithm1", g, {{"t", 1 << 16}, {"radius2", 1 << 24}}).valid);
  EXPECT_TRUE(solve_with("algorithm1", g, {{"t", 1}, {"radius1", -7}}).valid);
  EXPECT_TRUE(solve_with("ksv", isolated, {{"k", 1 << 20}}).valid);
  EXPECT_TRUE(solve_with("ksv", isolated, {{"k", 0}}).valid);
}

}  // namespace
}  // namespace lmds::api
