// E11 — batch serving throughput: graphs/sec of the sharded parallel
// run_batch vs worker count, plus the response-cache effect on a repeated
// batch. The LOCAL model is parallel per vertex; at the serving layer the
// exploitable parallelism is *across graphs* of a batch, which is what a
// deployment answering many small queries cares about (cf. Table 1: many
// instances, one request shape).
//
//   $ ./bench_batch_throughput [--preset small|full] [--json FILE]
//
// Each threads row records the CPU seconds it was granted (cpu_s,
// cpu_per_wall) and, next to the wall speedup, a CPU-normalised one:
// graphs per CPU second relative to threads=1.
//
// Every multi-threaded pass is checked element-wise against the threads=1
// responses (the executor's determinism guarantee), so this bench doubles as
// a stress test. With --json the measurements land in FILE for the CI
// artifact trail (BENCH_*.json).

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "bench_common.hpp"
#include "ding/generators.hpp"
#include "graph/generators.hpp"

namespace {

using namespace lmds;
using graph::Graph;

std::vector<Graph> workload(bool small) {
  std::mt19937_64 rng(20250727);
  const int repeat = small ? 2 : 6;
  std::vector<Graph> gs;
  for (int rep = 0; rep < repeat; ++rep) {
    for (const int links : {6, 9, 12}) gs.push_back(graph::gen::theta_chain(links, 4));
    gs.push_back(graph::gen::grid(6, small ? 8 : 12));
    gs.push_back(graph::gen::clique_with_pendants(small ? 10 : 14));
    gs.push_back(graph::gen::random_tree(small ? 80 : 160, rng));
    gs.push_back(graph::gen::random_outerplanar(small ? 40 : 70, 0.5, rng));
    gs.push_back(graph::gen::apollonian(small ? 40 : 70, rng));
    ding::CactusConfig cc;
    cc.pieces = small ? 8 : 12;
    cc.t = 6;
    gs.push_back(ding::random_cactus_of_structures(cc, rng));
  }
  return gs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset = "small";
  bench::Harness h("batch_throughput", argc, argv, {{"--preset", &preset, "small|full"}});
  const bool small = preset != "full";

  const std::vector<Graph> graphs = workload(small);
  const char* solver = "algorithm1";
  api::Request req;
  req.options["t"] = 6;
  req.options["radius1"] = 3;
  req.options["radius2"] = 3;

  std::printf("Batch throughput — %s x %zu graphs (preset %s), shard_size 2\n\n", solver,
              graphs.size(), small ? "small" : "full");
  std::printf("%8s %10s %12s %10s %8s %8s %8s %10s\n", "threads", "seconds", "graphs/sec",
              "speedup", "shards", "stolen", "cpu/wall", "cpu-norm");
  std::printf("%s\n", std::string(82, '-').c_str());

  std::vector<bench::Fields> runs;
  double base_rate = 0;      // graphs/sec at threads=1
  double base_cpu_rate = 0;  // graphs per CPU second at threads=1
  std::vector<api::Response> reference;
  for (const int threads : {1, 2, 4, 8}) {
    api::BatchOptions opts;
    opts.threads = threads;
    opts.shard_size = 2;
    api::BatchExecutor executor(opts);
    api::BatchDiagnostics diag;
    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = bench::cpu_seconds();
    const auto responses = executor.run_batch(solver, {graphs.data(), graphs.size()}, req, &diag);
    const double cpu = bench::cpu_seconds() - cpu_start;
    const double secs = bench::seconds_since(start);
    const double rate = static_cast<double>(graphs.size()) / secs;
    // The wall speedup over the CPU this row was granted: on a host that
    // grants fewer CPUs than threads, the wall speedup alone misleads.
    const double cpu_rate = cpu > 0 ? static_cast<double>(graphs.size()) / cpu : 0;
    if (threads == 1) {
      reference = responses;
      base_rate = rate;
      base_cpu_rate = cpu_rate;
    } else if (responses != reference) {
      std::fprintf(stderr, "DETERMINISM VIOLATION at threads=%d\n", threads);
      return 1;
    }
    runs.push_back({{"threads", std::to_string(threads)},
                    {"seconds", bench::json_num(secs, 6)},
                    {"graphs_per_sec", bench::json_num(rate, 2)},
                    {"speedup_vs_1", bench::json_num(rate / base_rate, 3)},
                    {"cpu_s", bench::json_num(cpu, 6)},
                    {"cpu_per_wall", bench::json_num(secs > 0 ? cpu / secs : 0, 3)},
                    {"cpu_speedup_vs_1",
                     bench::json_num(base_cpu_rate > 0 ? cpu_rate / base_cpu_rate : 0, 3)}});
    std::printf("%8d %10.3f %12.1f %9.2fx %8d %8llu %8.2f %9.2fx\n", threads, secs, rate,
                rate / base_rate, diag.shards, static_cast<unsigned long long>(diag.stolen_shards),
                secs > 0 ? cpu / secs : 0, base_cpu_rate > 0 ? cpu_rate / base_cpu_rate : 0);
  }

  // Response cache: a second identical batch should be all hits.
  api::BatchOptions copts;
  copts.threads = 4;
  copts.shard_size = 2;
  copts.cache_capacity = graphs.size();
  api::BatchExecutor executor(copts);
  api::BatchDiagnostics cold;
  api::BatchDiagnostics warm;
  const auto start_cold = std::chrono::steady_clock::now();
  (void)executor.run_batch(solver, {graphs.data(), graphs.size()}, req, &cold);
  const double cold_secs = bench::seconds_since(start_cold);
  const auto start_warm = std::chrono::steady_clock::now();
  const auto warm_responses =
      executor.run_batch(solver, {graphs.data(), graphs.size()}, req, &warm);
  const double warm_secs = bench::seconds_since(start_warm);
  if (warm_responses != reference) {
    std::fprintf(stderr, "CACHE VIOLATION: warm responses differ from uncached run\n");
    return 1;
  }
  std::printf("\nresponse cache (capacity %zu): cold %.3fs (%llu misses), warm %.3fs "
              "(%llu hits, %.0fx)\n",
              copts.cache_capacity, cold_secs,
              static_cast<unsigned long long>(cold.cache_misses), warm_secs,
              static_cast<unsigned long long>(warm.cache_hits), cold_secs / warm_secs);

  h.write_json({{"preset", bench::json_str(small ? "small" : "full")},
                {"solver", bench::json_str(solver)},
                {"graphs", std::to_string(graphs.size())},
                {"cache", bench::json_object(
                              {{"cold_seconds", bench::json_num(cold_secs, 6)},
                               {"warm_seconds", bench::json_num(warm_secs, 6)},
                               {"hits", std::to_string(warm.cache_hits)},
                               {"misses", std::to_string(cold.cache_misses)}})}},
               runs);

  std::printf("\nReading: speedup tracks min(threads, cores) while per-graph work dominates\n"
              "shard bookkeeping; the warm pass costs only graph hashing + map lookups.\n");
  return 0;
}
