// Protocol v2.1 — incremental vs full re-solve across churn rates, measured
// end-to-end through the Session core exactly as both transports run it:
// put a large grid once, prime its cached response, then for each churn
// level derive patched handles (clustered "hotspot" edit batches — the
// realistic dynamic-graph shape: a failing region, not uniformly random
// noise) and time a solve against each derived handle twice:
//
//   * incremental — the executor splices the parent's cached response,
//     re-solving only the dirty balls around the edited edges;
//   * full — the same request with "batch":{"no_cache":true}, forcing the
//     from-scratch solve a server without lineage would run.
//
// Every incremental response is differentially compared against its full
// counterpart in-process — the bench doubles as a large-scale instance of
// the tests/test_patch.cpp differential suite. The timers cover
// server.handle_line alone; each reply is parsed and compared after them.
// The e2e column also counts that parse, as the bench timed before. The
// patch_graph lines that derive the children are timed the same way
// (patch s/req, runs[].patch_ms): the store's apply and child hash.
//
//   $ ./bench_patch_throughput [--vertices N] [--iters N] [--solver S]
//                              [--check] [--json FILE]
//
// --check exits 1 unless the incremental path is at least 5x full-solve
// throughput (handle_line time) at every churn level <= 1% — the acceptance
// gate CI runs.
// --json writes runs[].graphs_per_sec for scripts/bench_regression.py and
// the BENCH_* artifact trail.

#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

using namespace lmds;
using graph::Edge;
using graph::Graph;
using graph::Vertex;

// A clustered edit batch: BFS out from a random center and delete the first
// `count` edges whose endpoints are both inside the visited region. Edits
// that cluster spatially keep the dirty set proportional to the churn — the
// regime the incremental path is designed for (uniform random edits at the
// same churn would scatter r-balls across the whole graph).
std::vector<Edge> hotspot_deletions(const Graph& g, std::mt19937_64& rng, int count) {
  const int n = g.num_vertices();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<Vertex> frontier;
  const auto center = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n));
  seen[static_cast<std::size_t>(center)] = 1;
  frontier.push(center);
  std::set<Edge> edits;
  while (!frontier.empty() && static_cast<int>(edits.size()) < count) {
    const Vertex u = frontier.front();
    frontier.pop();
    for (Vertex w : g.neighbors(u)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        frontier.push(w);
      }
      edits.insert(u < w ? Edge{u, w} : Edge{w, u});
      if (static_cast<int>(edits.size()) >= count) break;
    }
  }
  return {edits.begin(), edits.end()};
}

struct SolveResult {
  std::vector<long long> solution;
  long long incremental_solves = 0;
  long long incremental_dirty = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int vertices = 100'000;
  int iters = 3;
  std::string solver = "ksv";
  bench::Harness h("patch_throughput", argc, argv,
                   {{"--vertices", &vertices}, {"--iters", &iters}, {"--solver", &solver, "S"}});
  if (vertices < 16) vertices = 16;
  if (iters < 1) iters = 1;

  int side = 1;
  while ((side + 1) * (side + 1) <= vertices) ++side;
  const Graph g = graph::gen::grid(side, side);

  server::ServerOptions opts;
  opts.core.batch.threads = 1;
  opts.core.batch.cache_capacity = 4096;
  opts.core.store_capacity = 4096;
  opts.core.snapshot_dir.clear();
  server::Server server(opts);

  // Parses a reply; a failed request ends the bench.
  const auto checked = [](const std::string& response) {
    server::JsonValue parsed = server::json_parse(response);
    if (!parsed.find("ok")->as_bool()) {
      std::fprintf(stderr, "request failed: %s\n", response.substr(0, 200).c_str());
      std::exit(1);
    }
    return parsed;
  };
  const auto exchange = [&](const std::string& line) { return checked(server.handle_line(line)); };

  const server::JsonValue put = exchange("{\"op\":\"put_graph\",\"graph\":" +
                                         server::encode_graph_json(g) + "}");
  const std::string parent = put.find("handle")->as_string();

  const auto solve_line = [&](const std::string& handle, bool no_cache) {
    std::string line = "{\"op\":\"solve\",\"solver\":\"" + solver + "\"";
    if (no_cache) line += ",\"batch\":{\"no_cache\":true}";
    return line + ",\"graphs\":[\"" + handle + "\"]}";
  };
  const auto parse_solve = [&](const server::JsonValue& response) {
    SolveResult r;
    for (const server::JsonValue& v :
         response.find("responses")->as_array().at(0).find("solution")->as_array()) {
      r.solution.push_back(v.as_int());
    }
    const server::JsonValue* diag = response.find("diag");
    if (const server::JsonValue* s = diag->find("incremental_solves")) {
      r.incremental_solves = s->as_int();
      r.incremental_dirty = diag->find("incremental_dirty")->as_int();
    }
    return r;
  };

  // Prime the parent's cached response — the splice base of every
  // incremental solve below.
  (void)exchange(solve_line(parent, /*no_cache=*/false));

  static constexpr double kChurn[] = {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.10};
  std::printf("Patch throughput — %d-vertex grid (%d edges), solver %s, %d patches/level\n\n",
              g.num_vertices(), g.num_edges(), solver.c_str(), iters);
  std::printf("%8s %8s %10s %12s %12s %12s %10s %10s %10s\n", "churn", "edits", "dirty",
              "patch s/req", "incr s/req", "full s/req", "incr/sec", "speedup", "e2e");
  std::printf("%s\n", std::string(100, '-').c_str());

  std::mt19937_64 rng(0xBE7C'9A11);
  std::vector<bench::Fields> runs;
  for (const double churn : kChurn) {
    const int edits = std::max(1, static_cast<int>(churn * g.num_edges()));

    // Derive `iters` hotspot children for this churn level: the patch_graph
    // lines through handle_line, timed, then every reply parsed.
    std::vector<std::string> patch_lines;
    while (static_cast<int>(patch_lines.size()) < iters) {
      graph::GraphPatch patch;
      patch.del = hotspot_deletions(g, rng, edits);
      if (patch.del.empty()) continue;
      patch_lines.push_back("{\"op\":\"patch_graph\",\"handle\":\"" + parent + "\"," +
                            server::encode_patch_members(patch) + "}");
    }
    std::vector<std::string> patch_replies;
    const auto patch_start = std::chrono::steady_clock::now();
    for (const std::string& line : patch_lines) patch_replies.push_back(server.handle_line(line));
    const double patch_secs = bench::seconds_since(patch_start);
    std::vector<std::string> children;
    for (const std::string& reply : patch_replies) {
      children.push_back(checked(reply).find("handle")->as_string());
    }

    // One arm: the children's solve lines through handle_line, timed, then
    // every reply parsed. Returns {handle_line seconds, parse seconds}.
    const auto run_arm = [&](bool no_cache, std::vector<SolveResult>& results) {
      std::vector<std::string> lines;
      for (const std::string& child : children) lines.push_back(solve_line(child, no_cache));
      std::vector<std::string> replies;
      const auto start = std::chrono::steady_clock::now();
      for (const std::string& line : lines) replies.push_back(server.handle_line(line));
      const double server_secs = bench::seconds_since(start);
      const auto parse_start = std::chrono::steady_clock::now();
      for (const std::string& reply : replies) results.push_back(parse_solve(checked(reply)));
      return std::pair{server_secs, bench::seconds_since(parse_start)};
    };
    // Incremental arm: each child's first solve is a top-level miss answered
    // by the ball-granular splice. Full arm: same children, cache bypassed —
    // the from-scratch baseline.
    std::vector<SolveResult> incremental;
    std::vector<SolveResult> full;
    const auto [incr_secs, incr_parse_secs] = run_arm(/*no_cache=*/false, incremental);
    const auto [full_secs, full_parse_secs] = run_arm(/*no_cache=*/true, full);

    double dirty_sum = 0;
    for (std::size_t i = 0; i < incremental.size(); ++i) {
      if (incremental[i].incremental_solves != 1) {
        std::fprintf(stderr, "churn %.4f: child %zu was not answered incrementally\n", churn, i);
        return 1;
      }
      if (incremental[i].solution != full[i].solution) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAILURE: churn %.4f child %zu — incremental and full "
                     "solve disagree\n",
                     churn, i);
        return 1;
      }
      dirty_sum += static_cast<double>(incremental[i].incremental_dirty);
    }
    const double dirty_frac = dirty_sum / iters / g.num_vertices();
    const double incr_rate = iters / incr_secs;
    const double full_rate = iters / full_secs;
    const double speedup = incr_rate / full_rate;
    const double e2e_speedup = (full_secs + full_parse_secs) / (incr_secs + incr_parse_secs);
    std::printf("%7.2f%% %8d %9.1f%% %12.4f %12.4f %12.4f %10.2f %9.1fx %9.1fx\n", churn * 100,
                edits, dirty_frac * 100, patch_secs / iters, incr_secs / iters, full_secs / iters,
                incr_rate, speedup, e2e_speedup);

    runs.push_back({{"churn", bench::json_num(churn, 4)},
                    {"edits", std::to_string(edits)},
                    {"dirty_fraction", bench::json_num(dirty_frac, 4)},
                    {"patch_ms", bench::json_num(patch_secs / iters * 1e3, 3)},
                    {"graphs_per_sec", bench::json_num(incr_rate, 2)},
                    {"full_graphs_per_sec", bench::json_num(full_rate, 2)},
                    {"speedup", bench::json_num(speedup, 2)},
                    {"e2e_speedup", bench::json_num(e2e_speedup, 2)}});
    h.gate(churn > 0.01 || speedup >= 5.0,
           "churn %.2f%% incremental speedup %.2fx (need >= 5x at <= 1%%)", churn * 100,
           speedup);
  }

  h.write_json({{"vertices", std::to_string(g.num_vertices())},
                {"edges", std::to_string(g.num_edges())},
                {"solver", bench::json_str(solver)},
                {"iters", std::to_string(iters)}},
               runs);
  return h.exit_code();
}
