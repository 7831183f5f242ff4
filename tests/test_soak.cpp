// Soak-harness unit suite: the validity oracle (accepts every registry
// solver's real output, rejects planted invalid and over-ratio solutions),
// the BAI sampler on synthetic reward streams, the workload generator's
// determinism + minor-free certificates, and every fuzz mutation kind
// round-tripped through the protocol parser (the asan-ubsan preset is where
// this test has teeth).

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "api/registry.hpp"
#include "graph/generators.hpp"
#include "minor/k2t.hpp"
#include "server/json.hpp"
#include "server/session.hpp"
#include "soak/bai.hpp"
#include "soak/fuzz.hpp"
#include "soak/oracle.hpp"
#include "soak/report.hpp"
#include "soak/workload.hpp"

namespace lmds {
namespace {

using soak::GraphCase;

GraphCase tree_case(int n, std::uint64_t seed) {
  GraphCase c;
  c.family = "tree";
  c.graph = graph::gen::random_tree(n, seed);
  c.seed = seed;
  c.certified_t = 2;
  return c;
}

// --------------------------------------------------------------- oracle ---

TEST(SoakOracle, AcceptsEveryRegistrySolversRealOutput) {
  const api::Registry& reg = api::Registry::instance();
  std::vector<GraphCase> cases;
  for (std::uint64_t i = 0; i < 2 * soak::kFamilies; ++i) cases.push_back(soak::make_case(7, i));
  for (const api::SolverSpec* spec : reg.specs()) {
    for (const GraphCase& c : cases) {
      api::Request req;
      req.graph = &c.graph;
      const api::Response r = reg.run(spec->name, req);
      const soak::OracleVerdict v =
          soak::check_response(c, spec->name, {}, spec->problem, r.solution);
      EXPECT_TRUE(v.ok()) << spec->name << " on " << c.family << ": " << v.reason;
    }
  }
}

TEST(SoakOracle, RejectsPlantedInvalidForEverySolver) {
  const GraphCase c = tree_case(12, 3);
  const std::vector<graph::Vertex> empty;
  for (const api::SolverSpec* spec : api::Registry::instance().specs()) {
    const soak::OracleVerdict v =
        soak::check_response(c, spec->name, {}, spec->problem, empty);
    EXPECT_FALSE(v.ok()) << spec->name << " accepted an empty solution";
    EXPECT_FALSE(v.valid);
  }
}

TEST(SoakOracle, RejectsOutOfRangeVertices) {
  const GraphCase c = tree_case(10, 3);
  const std::vector<graph::Vertex> bad{0, 99};
  const soak::OracleVerdict v =
      soak::check_response(c, "greedy", {}, api::Problem::Mds, bad);
  EXPECT_FALSE(v.ok());
}

TEST(SoakOracle, RejectsPlantedOverRatio) {
  // All vertices of a star: a valid dominating set at ratio n / 1 — over
  // every asserted bound (exact's 1 and greedy's 1 + ln n).
  GraphCase c;
  c.family = "star";
  c.graph = graph::gen::star(50);
  c.certified_t = 3;
  std::vector<graph::Vertex> all;
  for (graph::Vertex v = 0; v < c.graph.num_vertices(); ++v) all.push_back(v);
  for (const char* solver : {"exact", "greedy"}) {
    const soak::OracleVerdict v =
        soak::check_response(c, solver, {}, api::Problem::Mds, all);
    EXPECT_TRUE(v.valid) << solver;
    EXPECT_FALSE(v.ok()) << solver << " accepted ratio " << v.ratio;
    EXPECT_TRUE(v.ratio_checked) << solver;
  }
}

TEST(SoakOracle, Algorithm1BoundOnlyAtPaperRadii) {
  api::Options ablation{{"t", 5}, {"radius1", 4}, {"radius2", 4}};
  api::Options paper{{"t", 5}, {"radius1", 0}, {"radius2", 0}};
  EXPECT_EQ(soak::ratio_bound("algorithm1", ablation, 5, 30), 0.0);
  EXPECT_EQ(soak::ratio_bound("algorithm1", paper, 5, 30), 51.0);
  // Options t below the certificate: the class parameter does not contain
  // the input's class, so no bound.
  EXPECT_EQ(soak::ratio_bound("algorithm1", paper, 7, 30), 0.0);
  EXPECT_EQ(soak::ratio_bound("theorem44", {}, 3, 30), 5.0);
  EXPECT_EQ(soak::ratio_bound("theorem44-mvc", {}, 3, 30), 3.0);
  EXPECT_EQ(soak::ratio_bound("tree-rule", {}, 3, 30), 0.0);  // validity-only
}

// ----------------------------------------------------------------- BAI ---

TEST(SoakBai, TopTwoFindsBestArmOnSyntheticStream) {
  soak::BaiSampler sampler(4, soak::SamplingRule::TopTwo, /*threshold=*/3.0,
                           /*min_pulls=*/3, /*seed=*/99);
  const double means[] = {0.30, 0.55, 0.80, 0.40};
  std::mt19937_64 noise(42);
  std::normal_distribution<double> jitter(0.0, 0.05);
  for (int i = 0; i < 400; ++i) {
    const std::size_t arm = sampler.next_arm();
    sampler.record(arm, means[arm] + jitter(noise));
  }
  EXPECT_EQ(sampler.best_arm(), 2u);
  EXPECT_TRUE(sampler.confident());
  EXPECT_GT(sampler.decided_after(), 0u);
  // After confidence the sampler exploits: the winner holds a plurality.
  for (std::size_t a = 0; a < 4; ++a) {
    if (a != 2) {
      EXPECT_GT(sampler.arms()[2].pulls, sampler.arms()[a].pulls);
    }
  }
}

TEST(SoakBai, RoundRobinStaysUniform) {
  soak::BaiSampler sampler(3, soak::SamplingRule::RoundRobin, 3.0, 1, 7);
  for (int i = 0; i < 30; ++i) sampler.record(sampler.next_arm(), 0.5);
  for (const soak::ArmStats& a : sampler.arms()) EXPECT_EQ(a.pulls, 10u);
}

TEST(SoakBai, DeterministicForFixedSeed) {
  const auto run = [] {
    soak::BaiSampler s(3, soak::SamplingRule::TopTwo, 2.0, 2, 1234);
    const double means[] = {0.2, 0.6, 0.4};
    std::vector<std::size_t> picks;
    for (int i = 0; i < 60; ++i) {
      const std::size_t arm = s.next_arm();
      picks.push_back(arm);
      s.record(arm, means[arm]);
    }
    return picks;
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------------------- workload ---

TEST(SoakWorkload, DeterministicAndCertified) {
  for (std::uint64_t i = 0; i < 2 * soak::kFamilies; ++i) {
    const GraphCase a = soak::make_case(42, i);
    const GraphCase b = soak::make_case(42, i);
    EXPECT_EQ(a.graph, b.graph) << "case " << i << " not deterministic";
    EXPECT_EQ(a.family, b.family);
    ASSERT_GE(a.graph.num_vertices(), 3);
    if (a.certified_t > 0 && a.graph.num_vertices() <= 28) {
      EXPECT_TRUE(minor::is_k2t_minor_free(a.graph, a.certified_t))
          << a.family << " case " << i << " violates its K_{2," << a.certified_t
          << "} certificate";
    }
  }
}

TEST(SoakWorkload, SeedOverloadsMatchEngineOverloads) {
  std::mt19937_64 rng(123);
  EXPECT_EQ(graph::gen::random_tree(20, 123), graph::gen::random_tree(20, rng));
  std::mt19937_64 rng2(9);
  EXPECT_EQ(graph::gen::apollonian(15, 9), graph::gen::apollonian(15, rng2));
}

// ----------------------------------------------------------------- fuzz ---

TEST(SoakFuzz, EveryMutationKindRoundTripsThroughProtocol) {
  server::ServerCore core(server::CoreOptions{}, api::Registry::instance());
  server::Session session(core);
  const std::string base =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[{\"n\":4,\"edges\":[[0,1],[1,2],[2,3]]}]}";
  std::mt19937_64 rng(2026);
  for (int kind = 0; kind < soak::kMutationKinds; ++kind) {
    for (int i = 0; i < 64; ++i) {
      const std::string mutated =
          soak::mutate_line(base, static_cast<soak::MutationKind>(kind), rng);
      EXPECT_EQ(mutated.find('\n'), std::string::npos);
      EXPECT_EQ(mutated.find('\r'), std::string::npos);
      // The protocol core must answer every mutation with a JSON line — an
      // exception or a sanitizer report here is the failure mode.
      const std::string response = session.handle_line(mutated);
      ASSERT_FALSE(response.empty());
      const server::JsonValue body = server::json_parse(response);
      ASSERT_NE(body.find("ok"), nullptr)
          << soak::to_string(static_cast<soak::MutationKind>(kind)) << ": " << response;
    }
  }
}

TEST(SoakFuzz, MutationsAreDeterministic) {
  const std::string base = "{\"op\":\"stats\"}";
  const auto run = [&] {
    std::mt19937_64 rng(5);
    std::vector<std::string> out;
    for (int kind = 0; kind < soak::kMutationKinds; ++kind) {
      out.push_back(soak::mutate_line(base, static_cast<soak::MutationKind>(kind), rng));
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------- report ---

TEST(SoakReport, HistogramBucketsAndJson) {
  soak::RatioHistogram h;
  h.add(1.0);
  h.add(1.3);
  h.add(2.5);
  h.add(10.0);
  EXPECT_EQ(h.samples, 4u);
  EXPECT_EQ(h.counts[0], 1u);  // <= 1.0
  EXPECT_EQ(h.counts[2], 1u);  // <= 1.5
  EXPECT_EQ(h.counts[4], 1u);  // <= 3.0
  EXPECT_EQ(h.counts[6], 1u);  // > 5
  EXPECT_DOUBLE_EQ(h.max_ratio, 10.0);

  soak::SoakReport report;
  report.seed = 42;
  report.duration = 10;
  report.sampling_rule = "top-two";
  report.best_config = "greedy";
  const std::string json = report.to_json();
  // The report is valid JSON and omits wall-clock by default (determinism).
  const server::JsonValue parsed = server::json_parse(json);
  ASSERT_NE(parsed.find("soak"), nullptr);
  EXPECT_EQ(parsed.find("soak")->find("wall_seconds"), nullptr);
  EXPECT_EQ(parsed.find("oracle_violations")->as_int(), 0);
}

}  // namespace
}  // namespace lmds
