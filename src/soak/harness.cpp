#include "soak/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "graph/io.hpp"
#include "graph/ops.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "soak/bai.hpp"
#include "soak/fuzz.hpp"
#include "soak/oracle.hpp"
#include "soak/workload.hpp"
#include "solve/bounds.hpp"

namespace lmds::soak {

namespace {

using server::JsonValue;
using server::ProtocolClient;

/// One BAI arm: a solver plus the options the soak always sends with it.
struct ArmConfig {
  const char* name;
  const char* solver;
  api::Problem problem;
  std::vector<std::pair<std::string, int>> int_options;

  std::string options_members() const {
    if (int_options.empty()) return "{}";
    std::string out = "{";
    for (std::size_t i = 0; i < int_options.size(); ++i) {
      if (i) out += ',';
      out += '"' + int_options[i].first + "\":" + std::to_string(int_options[i].second);
    }
    return out + "}";
  }

  api::Options options() const {
    api::Options o;
    for (const auto& [k, v] : int_options) o[k] = v;
    return o;
  }
};

const std::vector<ArmConfig>& arm_table() {
  // algorithm1 twice on purpose: the paper radii (whose 51-bound the oracle
  // asserts) against the registry's r=4 ablation — the exact comparison the
  // radius-sweep bench makes, now ranked live by reward.
  static const std::vector<ArmConfig> kArms = {
      {"algorithm1-paper", "algorithm1", api::Problem::Mds,
       {{"t", 5}, {"radius1", 0}, {"radius2", 0}}},
      {"algorithm1-r4", "algorithm1", api::Problem::Mds,
       {{"t", 5}, {"radius1", 4}, {"radius2", 4}}},
      {"theorem44", "theorem44", api::Problem::Mds, {}},
      {"theorem44-mvc", "theorem44-mvc", api::Problem::Mvc, {}},
      {"greedy", "greedy", api::Problem::Mds, {}},
      {"ksv-k3", "ksv", api::Problem::Mds, {{"k", 3}}},
      {"tree-rule", "tree-rule", api::Problem::Mds, {}},
  };
  return kArms;
}

/// The solve request line the repro file records: self-contained (inline
/// graph), replayable with `serve_client --send`.
std::string solve_line_for(const ArmConfig& arm, const GraphCase& c) {
  std::string line = "{\"op\":\"solve\",\"solver\":\"" + std::string(arm.solver) + "\"";
  if (!arm.int_options.empty()) line += ",\"options\":" + arm.options_members();
  line += ",\"graphs\":[" + server::encode_graph_json(c.graph) + "]}";
  return line;
}

std::string mds_cli_replay(const ArmConfig& arm, const std::string& edges_path) {
  std::string cmd = "./mds_cli " + std::string(arm.solver) + " " + edges_path;
  for (const auto& [k, v] : arm.int_options) cmd += " --" + k + " " + std::to_string(v);
  return cmd;
}

/// The repro dumper: offending graph as an edge list + the full request as
/// JSON under repro_dir, plus a one-line replay command (printed and kept in
/// the report).
ViolationRecord dump_violation(const SoakOptions& opts, const ArmConfig& arm,
                               const GraphCase& c, std::uint64_t index,
                               const std::string& reason) {
  ViolationRecord rec;
  rec.config = arm.name;
  rec.family = c.family;
  rec.index = index;
  rec.seed = c.seed;
  rec.reason = reason;
  const std::string base = opts.repro_dir + "/soak-" + std::to_string(opts.seed) + "-case-" +
                           std::to_string(index) + "-" + arm.name;
  try {
    std::filesystem::create_directories(opts.repro_dir);
    const std::string edges_path = base + ".edges";
    {
      std::ofstream edges(edges_path);
      graph::write_edge_list(edges, c.graph);
      if (!edges) throw std::runtime_error("cannot write " + edges_path);
    }
    const std::string request_line = solve_line_for(arm, c);
    {
      std::ofstream meta(base + ".json");
      meta << "{\"family\":\"" << c.family << "\",\"seed\":" << c.seed
           << ",\"certified_t\":" << c.certified_t << ",\"reason\":";
      std::string escaped;
      server::json_append_string(escaped, reason);
      meta << escaped << ",\"request\":";
      escaped.clear();
      server::json_append_string(escaped, request_line);
      meta << escaped << "}\n";
      if (!meta) throw std::runtime_error("cannot write " + base + ".json");
    }
    rec.repro_path = base + ".json";
    rec.replay = mds_cli_replay(arm, edges_path);
    std::fprintf(stderr, "soak: ORACLE VIOLATION [%s/%s case %llu] %s\n  replay: %s\n",
                 arm.name, c.family.c_str(), static_cast<unsigned long long>(index),
                 reason.c_str(), rec.replay.c_str());
    std::fprintf(stderr, "  or: ./serve_client --port <PORT> --send \"$(python3 -c "
                         "'import json,sys;print(json.load(open(sys.argv[1]))[\"request\"])' "
                         "%s)\"\n",
                 rec.repro_path.c_str());
  } catch (const std::exception& e) {
    rec.repro_path.clear();
    rec.replay = mds_cli_replay(arm, base + ".edges");
    std::fprintf(stderr, "soak: ORACLE VIOLATION [%s case %llu] %s (repro dump failed: %s)\n",
                 arm.name, static_cast<unsigned long long>(index), reason.c_str(), e.what());
  }
  return rec;
}

std::uint64_t field_u64(const JsonValue& obj, std::string_view outer, std::string_view inner) {
  const JsonValue* o = obj.find(outer);
  if (!o) return 0;
  const JsonValue* v = o->find(inner);
  return v && v->type() == JsonValue::Type::Int ? static_cast<std::uint64_t>(v->as_int()) : 0;
}

}  // namespace

SoakReport run_soak(const SoakOptions& opts) {
  const auto wall_start = std::chrono::steady_clock::now();
  SoakReport report;
  report.seed = opts.seed;
  report.duration = opts.duration;
  report.sampling_rule = "top-two";

  // One in-process server, both listeners on ephemeral ports. threads = 1 in
  // the executor keeps every counter (cache hits, shard counts) a pure
  // function of the request sequence — the byte-determinism the report
  // promises. The snapshot verbs are disabled: the fuzz stage must not be
  // able to touch the filesystem through a lucky mutation.
  server::ServerOptions sopts;
  sopts.port = 0;
  sopts.http_port = 0;
  sopts.core.batch = {.threads = 1, .shard_size = 4, .cache_capacity = 4096};
  sopts.core.snapshot_dir = "";
  server::Server server(sopts);
  server.bind_and_listen();
  std::thread serving([&server] { server.serve(); });

  const std::string host = "127.0.0.1";
  const int line_port = server.port();
  const int http_port = server.http_port();

  const auto& arms = arm_table();
  std::vector<ConfigResult> results(arms.size());
  for (std::size_t a = 0; a < arms.size(); ++a) {
    results[a].name = arms[a].name;
    results[a].solver = arms[a].solver;
    results[a].options_members = arms[a].options_members();
  }

  BaiSampler sampler(arms.size(), SamplingRule::TopTwo, /*threshold=*/3.0,
                     /*min_pulls=*/2, mix_seed(opts.seed, 0xBA1));

  try {
    ProtocolClient line_client(host, line_port, /*http=*/false, "");
    ProtocolClient http_client(host, http_port, /*http=*/true, "");
    static constexpr const char* kNamespaces[] = {"", "soak-a", "soak-b"};

    const int rounds = opts.duration * kRoundsPerUnit;
    std::uint64_t next_index = 0;
    for (int round = 0; round < rounds; ++round) {
      ProtocolClient& client = round % 2 == 1 ? http_client : line_client;
      const std::string ns = kNamespaces[static_cast<std::size_t>(round) % 3];
      const bool by_handle = round % 3 == 2;

      // Admin-verb mixing: a long-lived client interleaves admin traffic
      // with solves, so the soak covers those paths continuously too.
      if (round % 4 == 0) server::require_ok(client.exchange("stats", ""), "stats");
      if (round % 6 == 3) server::require_ok(client.exchange("solvers", ""), "solvers");

      const std::size_t a = sampler.next_arm();
      const ArmConfig& arm = arms[a];

      std::vector<GraphCase> batch;
      batch.reserve(kBatchSize);
      const std::uint64_t base_index = next_index;
      for (int i = 0; i < kBatchSize; ++i) batch.push_back(make_case(opts.seed, next_index++));

      // Graph refs: inline edge lists, or store handles (upload, solve
      // twice — the repeat must hit the response cache — then drop).
      std::vector<std::string> handles;
      std::string graphs_json = "[";
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (i) graphs_json += ',';
        if (by_handle) {
          const JsonValue put = client.put_graph(server::encode_graph_json(batch[i].graph));
          server::require_ok(put, "put_graph");
          handles.push_back(put.find("handle")->as_string());
          graphs_json += '"' + handles.back() + '"';
        } else {
          graphs_json += server::encode_graph_json(batch[i].graph);
        }
      }
      graphs_json += ']';

      std::string members = "\"solver\":\"" + std::string(arm.solver) + "\"";
      if (!arm.int_options.empty()) members += ",\"options\":" + arm.options_members();
      if (!ns.empty()) members += ",\"namespace\":\"" + ns + "\"";
      members += ",\"graphs\":" + graphs_json;

      // Reward inputs, filled from the first pass: solution quality
      // (combinatorial lower bound over returned size, <= 1, bigger is
      // better) and a deterministic cost model (graph volume n + m as the
      // unit of work) — the throughput-and-ratio proxy that keeps the
      // report byte-deterministic where measured wall-clock would not be.
      double quality_sum = 0.0;
      double cost_sum = 0.0;

      const int passes = by_handle ? 2 : 1;  // the repeat must hit the cache
      for (int pass = 0; pass < passes; ++pass) {
        const JsonValue response = client.exchange("solve", members);
        const JsonValue* ok = response.find("ok");
        if (!ok || !ok->as_bool()) {
          const JsonValue* err = response.find("error");
          report.violations.push_back(dump_violation(
              opts, arm, batch[0], base_index,
              "server rejected a valid solve: " +
                  (err ? err->as_string() : std::string("(no error field)"))));
          ++results[a].violations;
          continue;
        }
        const auto& responses = response.find("responses")->as_array();
        for (std::size_t i = 0; i < responses.size() && i < batch.size(); ++i) {
          std::vector<graph::Vertex> solution;
          for (const JsonValue& v : responses[i].find("solution")->as_array()) {
            solution.push_back(static_cast<graph::Vertex>(v.as_int()));
          }
          const OracleVerdict verdict = check_response(batch[i], arm.solver, arm.options(),
                                                       arm.problem, solution);
          if (pass == 0) {
            ++results[a].graphs;
            if (verdict.ratio_checked) results[a].ratios.add(verdict.ratio);
            const int lb = arm.problem == api::Problem::Mvc
                               ? solve::mvc_lower_bound(batch[i].graph)
                               : solve::mds_lower_bound(batch[i].graph);
            quality_sum += static_cast<double>(lb) /
                           static_cast<double>(solution.empty() ? 1 : solution.size());
            cost_sum += static_cast<double>(batch[i].graph.num_vertices() +
                                            batch[i].graph.num_edges());
          }
          if (!verdict.ok()) {
            report.violations.push_back(dump_violation(opts, arm, batch[i], base_index + i,
                                                       verdict.reason));
            ++results[a].violations;
          }
        }
      }
      // Dynamic-graph arm (v2.1): patch each stored handle with a small
      // deterministic edit batch and solve the derived child with the same
      // arm — the oracle re-validates against the actually-patched graph.
      // LOCAL solvers ride the incremental re-solve here; the rest must fall
      // back to a full solve with identical output (tests/test_patch.cpp
      // asserts the bit-identity, the soak asserts it never stops holding).
      if (by_handle) {
        for (std::size_t i = 0; i < handles.size(); ++i) {
          const GraphCase& parent = batch[i];
          const graph::GraphPatch patch = make_patch(
              parent.graph, mix_seed(opts.seed, (base_index + i) ^ 0xED17ULL), /*edits=*/3);
          if (patch.add.empty() && patch.del.empty()) continue;
          const JsonValue patched =
              client.patch_graph(handles[i], server::encode_patch_members(patch));
          server::require_ok(patched, "patch_graph");
          const std::string child = patched.find("handle")->as_string();

          GraphCase child_case;
          child_case.family = parent.family + "+patch";
          child_case.graph = graph::apply_patch(parent.graph, patch).graph;
          child_case.seed = parent.seed;
          child_case.certified_t = 0;  // edits void the construction certificate

          std::string child_members = "\"solver\":\"" + std::string(arm.solver) + "\"";
          if (!arm.int_options.empty()) child_members += ",\"options\":" + arm.options_members();
          if (!ns.empty()) child_members += ",\"namespace\":\"" + ns + "\"";
          child_members += ",\"graphs\":[\"" + child + "\"]";
          const JsonValue response = client.exchange("solve", child_members);
          const JsonValue* ok = response.find("ok");
          if (!ok || !ok->as_bool()) {
            const JsonValue* err = response.find("error");
            report.violations.push_back(dump_violation(
                opts, arm, child_case, base_index + i,
                "server rejected a patched-handle solve: " +
                    (err ? err->as_string() : std::string("(no error field)"))));
            ++results[a].violations;
          } else {
            std::vector<graph::Vertex> solution;
            for (const JsonValue& v :
                 response.find("responses")->as_array().at(0).find("solution")->as_array()) {
              solution.push_back(static_cast<graph::Vertex>(v.as_int()));
            }
            const OracleVerdict verdict = check_response(child_case, arm.solver, arm.options(),
                                                         arm.problem, solution);
            if (!verdict.ok()) {
              report.violations.push_back(
                  dump_violation(opts, arm, child_case, base_index + i, verdict.reason));
              ++results[a].violations;
            }
          }
          if (child != handles[i]) {
            server::require_ok(client.drop_graph(child), "drop_graph");
          }
        }
      }
      for (const std::string& h : handles) server::require_ok(client.drop_graph(h), "drop_graph");

      const double quality = quality_sum / static_cast<double>(batch.size());
      const double cost = cost_sum / static_cast<double>(batch.size());
      sampler.record(a, quality * (200.0 / (200.0 + cost)));
    }
  } catch (const std::exception& e) {
    // A dead client connection mid-loop means the server died under valid
    // traffic — the worst possible soak outcome.
    ViolationRecord rec;
    rec.config = "harness";
    rec.reason = std::string("soak loop aborted: ") + e.what();
    report.violations.push_back(std::move(rec));
  }

  for (std::size_t a = 0; a < arms.size(); ++a) {
    results[a].pulls = sampler.arms()[a].pulls;
    results[a].mean_reward = sampler.arms()[a].mean;
    results[a].reward_variance = sampler.arms()[a].variance();
  }
  report.decided_after = sampler.decided_after();
  report.best_config = results[sampler.best_arm()].name;
  std::sort(results.begin(), results.end(), [](const ConfigResult& x, const ConfigResult& y) {
    if (x.mean_reward != y.mean_reward) return x.mean_reward > y.mean_reward;
    return x.name < y.name;
  });
  report.configs = std::move(results);

  // ---------------------------------------------------------------- fuzz —
  std::mt19937_64 fuzz_rng(mix_seed(opts.seed, 0xF022));
  const GraphCase small = make_case(opts.seed, 0);
  const std::string graph_json = server::encode_graph_json(small.graph);
  const std::vector<std::string> bases = {
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[" + graph_json + "]}",
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"namespace\":\"soak-a\",\"graphs\":[" +
          graph_json + "]}",
      "{\"op\":\"put_graph\",\"graph\":" + graph_json + "}",
      "{\"op\":\"patch_graph\",\"handle\":\"g0123456789abcdef\","
      "\"add\":[[0,2]],\"del\":[],\"n\":30}",
      "{\"op\":\"drop_graph\",\"handle\":\"g0123456789abcdef\"}",
      "{\"op\":\"stats\"}",
      "{\"op\":\"open_session\",\"namespace\":\"soak-b\"}",
  };

  const auto probe_liveness = [&](const char* after) -> bool {
    ++report.fuzz.liveness_probes;
    try {
      ProtocolClient probe(host, line_port, /*http=*/false, "");
      server::require_ok(probe.exchange("stats", ""), "liveness stats");
      return true;
    } catch (const std::exception& e) {
      ++report.fuzz.failures;
      ViolationRecord rec;
      rec.config = "fuzz";
      rec.reason = std::string("server unresponsive after ") + after + ": " + e.what();
      report.violations.push_back(std::move(rec));
      return false;
    }
  };

  const int cases = opts.duration * kFuzzPerUnit;
  {  // line protocol: one connection, reopened whenever the server closes it
    std::unique_ptr<ProtocolClient> fc;
    for (int i = 0; i < cases; ++i) {
      const auto kind = static_cast<MutationKind>(i % kMutationKinds);
      FuzzKindCounters& k = report.fuzz.kinds[std::string(to_string(kind))];
      ++k.attempts;
      const std::string mutated =
          mutate_line(bases[static_cast<std::size_t>(i) % bases.size()], kind, fuzz_rng);
      if (!fc) fc = std::make_unique<ProtocolClient>(host, line_port, false, "");
      // The line loop ignores blank lines (keep-alive), so an empty
      // mutation gets a stats chaser — the response proves the server
      // swallowed the blank without wedging.
      const std::string wire =
          mutated.empty() ? "\n{\"op\":\"stats\"}\n" : mutated + "\n";
      std::optional<std::string> response;
      if (fc->send_raw(wire)) response = fc->read_raw_line();
      if (!response) {
        ++k.closed_connections;
        fc.reset();
        if (!probe_liveness(to_string(kind).data())) break;
        continue;
      }
      try {
        const JsonValue body = server::json_parse(*response);
        const JsonValue* ok = body.find("ok");
        if (ok && ok->as_bool()) {
          ++k.ok_responses;  // mutation happened to stay well-formed
        } else {
          ++k.error_responses;
        }
      } catch (const std::exception&) {
        // A non-JSON line would break the protocol's own contract.
        ++report.fuzz.failures;
        ViolationRecord rec;
        rec.config = "fuzz";
        rec.reason = "non-JSON response line after " + std::string(to_string(kind)) +
                     " mutation: " + mutated.substr(0, 120);
        report.violations.push_back(std::move(rec));
      }
    }
  }

  static constexpr struct {
    const char* method;
    const char* target;
  } kRoutes[] = {{"POST", "/v2/solve"},
                 {"PUT", "/v2/graphs"},
                 {"POST", "/v2/solve"},
                 {"GET", "/v2/nonexistent"},
                 {"BREW", "/v2/solve"},
                 {"POST", "/v2/graphs/zzz"},
                 {"POST", "/v2/graphs/g0123456789abcdef/patch"}};
  for (int i = 0; i < cases; ++i) {
    const auto kind = static_cast<MutationKind>(i % kMutationKinds);
    FuzzKindCounters& k = report.fuzz.kinds[std::string(to_string(kind))];
    ++k.attempts;
    const std::string body =
        mutate_line(bases[static_cast<std::size_t>(i) % bases.size()], kind, fuzz_rng);
    const auto& route = kRoutes[static_cast<std::size_t>(i) % std::size(kRoutes)];
    try {
      // Fresh connection per case (HTTP errors may close), valid framing
      // with a recomputed Content-Length — the fuzz targets the request
      // body and route, never the framing (a framing attack would just
      // hang the client side of this very loop).
      ProtocolClient hc(host, http_port, /*http=*/true, "");
      const JsonValue parsed = hc.exchange_http(route.method, route.target, body);
      const JsonValue* ok = parsed.find("ok");
      if (ok && ok->as_bool()) {
        ++k.ok_responses;
      } else {
        ++k.error_responses;
      }
    } catch (const std::exception&) {
      ++k.closed_connections;
      if (!probe_liveness(to_string(kind).data())) break;
    }
  }

  // Final stats probe: the executor-health satellite feeding the report.
  try {
    ProtocolClient probe(host, line_port, /*http=*/false, "");
    const JsonValue stats = probe.exchange("stats", "");
    report.executor.batches_started = field_u64(stats, "executor", "batches_started");
    report.executor.shards_executed = field_u64(stats, "executor", "shards_executed");
    report.executor.solves_served = field_u64(stats, "executor", "solves_served");
    report.executor.cache_hits = field_u64(stats, "cache", "hits");
    report.executor.cache_misses = field_u64(stats, "cache", "misses");
    report.executor.requests = field_u64(stats, "server", "requests");
    report.executor.graphs_solved = field_u64(stats, "server", "graphs_solved");
  } catch (const std::exception& e) {
    ViolationRecord rec;
    rec.config = "harness";
    rec.reason = std::string("final stats probe failed: ") + e.what();
    report.violations.push_back(std::move(rec));
  }

  server.request_stop();
  serving.join();

  if (opts.timing) {
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  }
  return report;
}

}  // namespace lmds::soak
