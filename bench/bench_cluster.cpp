// Cluster scale-out gate: aggregate graphs/sec through a routed 2-worker
// cluster vs one worker, end-to-end through the real wire path (the router
// reaches its workers over TCP; the baseline worker is driven in-process,
// which only favors the baseline).
//
// The workload replaces solver compute with a FIXED PER-GRAPH SERVICE TIME
// (a bench-only registered solver that sleeps `service_us` then answers
// take-all): with compute held constant, the measured ratio is the router's
// fan-out concurrency — can it keep 2 workers busy at once? — independent of
// the host's core count, so the gate is meaningful on a 1-core CI runner
// and a 64-core dev box alike. Each batch is pre-balanced across the ring
// (half its unique graphs hash to each worker), every worker runs a single
// executor thread, and response caching is disabled, so a perfect router
// answers a batch in half the single worker's wall time.
//
//   $ ./bench_cluster [--batches N] [--batch-size N] [--service-us N]
//                     [--check] [--json FILE]
//
// --check exits 1 unless the 2-worker cluster clears 1.7x the single-worker
// rate — the regression gate CI runs (acceptance criterion of the cluster
// subsystem; perfect fan-out is 2.0x, 1.7x absorbs routing overhead and CI
// noise). --json writes the measurements for the BENCH_* artifact trail.

#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "server/json.hpp"
#include "server/server.hpp"

namespace {

using namespace lmds;

/// The bench-only solver: a fixed service time, then the (always valid)
/// take-all dominating set. Registered at startup; the workers share this
/// process, so every server in the topology can answer it.
void register_service_solver() {
  api::Registry::instance().add(
      {.name = "bench-service",
       .problem = api::Problem::Mds,
       .modes = {api::Mode::Centralized},
       .summary = "bench_cluster only: sleep service_us, answer all vertices",
       .params = {{"service_us", 2000, "fixed per-graph service time (microseconds)"}},
       .locality_radius = -1},
      [](const api::SolveContext& ctx) {
        const auto it = ctx.params.find("service_us");
        std::this_thread::sleep_for(std::chrono::microseconds(it->second.as_int()));
        api::SolverOutput out;
        out.solution.resize(static_cast<std::size_t>(ctx.graph.num_vertices()));
        std::iota(out.solution.begin(), out.solution.end(), 0);
        out.diag.rounds = 0;
        return out;
      });
}

server::ServerOptions worker_options() {
  server::ServerOptions opts;
  opts.port = 0;                // ephemeral
  opts.core.batch.threads = 1;  // serial per worker: fan-out is the only win
  opts.core.batch.shard_size = 1;
  opts.core.batch.cache_capacity = 64;
  opts.core.snapshot_dir.clear();
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  int batches = 6;
  int batch_size = 32;
  int service_us = 2000;
  bench::Harness h("cluster", argc, argv,
                   {{"--batches", &batches},
                    {"--batch-size", &batch_size},
                    {"--service-us", &service_us}});
  if (batches < 1) batches = 1;
  if (batch_size < 2) batch_size = 2;
  if (batch_size % 2) ++batch_size;  // half per worker
  if (service_us < 100) service_us = 100;

  register_service_solver();

  // Two TCP workers for the router, one in-process worker as the baseline.
  server::Server worker_a(worker_options());
  server::Server worker_b(worker_options());
  worker_a.bind_and_listen();
  worker_b.bind_and_listen();
  std::thread serve_a([&] { worker_a.serve(); });
  std::thread serve_b([&] { worker_b.serve(); });
  server::Server single(worker_options());

  cluster::RouterOptions ropts;
  ropts.peers = {"127.0.0.1:" + std::to_string(worker_a.port()),
                 "127.0.0.1:" + std::to_string(worker_b.port())};
  server::Server router_front(worker_options());
  cluster::Router router(ropts, router_front.core());
  router.install();

  // Pre-balance every batch: unique path graphs, picked so exactly half hash
  // to each worker. An unbalanced batch would measure ring luck, not fan-out.
  const cluster::HashRing ring(ropts.peers, ropts.vnodes);
  std::vector<std::string> batch_lines;
  const std::string prefix =
      "{\"op\":\"solve\",\"solver\":\"bench-service\",\"options\":{\"service_us\":" +
      std::to_string(service_us) + "},\"batch\":{\"no_cache\":true},\"graphs\":[";
  int next_n = 4;
  for (int b = 0; b < batches; ++b) {
    std::vector<std::string> slots;
    int per_owner[2] = {0, 0};
    while (static_cast<int>(slots.size()) < batch_size) {
      const graph::Graph g = graph::gen::path(next_n++);
      const std::size_t owner = ring.owner_index(graph::graph_hash(g));
      if (per_owner[owner] >= batch_size / 2) continue;
      ++per_owner[owner];
      slots.push_back(server::encode_graph_json(g));
    }
    std::string line = prefix;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i) line += ',';
      line += slots[i];
    }
    batch_lines.push_back(line + "]}");
  }

  const auto drive = [&](server::Server& srv, const char* what) {
    // One untimed warmup batch dials connections and pools them.
    const std::string warm = prefix + server::encode_graph_json(graph::gen::path(3)) + "]}";
    if (srv.handle_line(warm).find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "bench_cluster: %s warmup failed\n", what);
      std::exit(1);
    }
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& line : batch_lines) {
      const std::string response = srv.handle_line(line);
      if (response.find("\"ok\":true") == std::string::npos) {
        std::fprintf(stderr, "bench_cluster: %s solve failed: %s\n", what,
                     response.substr(0, 200).c_str());
        std::exit(1);
      }
    }
    return bench::seconds_since(start);
  };

  const int total_graphs = batches * batch_size;
  const double single_secs = drive(single, "single worker");
  const double routed_secs = drive(router_front, "routed cluster");
  const double single_rate = total_graphs / single_secs;
  const double routed_rate = total_graphs / routed_secs;
  const double speedup = routed_rate / single_rate;

  worker_a.request_stop();
  worker_b.request_stop();
  serve_a.join();
  serve_b.join();

  std::printf("Cluster scale-out — %d batches x %d graphs, %dus service time per graph\n\n",
              batches, batch_size, service_us);
  std::printf("%-22s %10s %14s\n", "topology", "seconds", "graphs/sec");
  std::printf("%s\n", std::string(48, '-').c_str());
  std::printf("%-22s %10.4f %14.1f\n", "1 worker", single_secs, single_rate);
  std::printf("%-22s %10.4f %14.1f\n", "router + 2 workers", routed_secs, routed_rate);
  std::printf("\n2-worker aggregate speedup: %.2fx (perfect fan-out: 2.00x)\n", speedup);

  h.write_json({{"batches", std::to_string(batches)},
                {"batch_size", std::to_string(batch_size)},
                {"service_us", std::to_string(service_us)},
                {"cluster_speedup", bench::json_num(speedup, 3)}},
               {{{"name", bench::json_str("single_worker")},
                 {"graphs_per_sec", bench::json_num(single_rate, 2)}},
                {{"name", bench::json_str("routed_2_workers")},
                 {"graphs_per_sec", bench::json_num(routed_rate, 2)}}});
  h.gate(speedup >= 1.7, "routed 2-worker cluster is only %.2fx one worker (need >= 1.7x)",
         speedup);
  return h.exit_code();
}
