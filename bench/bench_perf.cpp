// Hot-path perf bench: CSR-native view extraction and the intra-graph
// threading mode, against the reference (seed) implementations they must
// match bit-for-bit (tests/test_hotpath.cpp holds the differential proof;
// this bench holds the speed claim).
//
// Three runs:
//   * gather_flooded — flooded gather_views (radius 3) on a ~1k-vertex grid,
//     fast vs reference, both over every vertex;
//   * cut_views      — cut-view extraction on a --vertices grid (default
//     100k): the fast path over every vertex vs the reference extrapolated
//     from a --sample subset (the reference rebuilds a full graph per view —
//     running it at every vertex would take hours by design);
//   * intra_solve    — one ksv solve of the same grid through BatchExecutor,
//     intra_threads=1 vs intra_threads=hardware, cache bypassed, solutions
//     compared differentially.
//
//   $ ./bench_perf [--vertices N] [--threads N] [--sample N] [--check] [--json FILE]
//
// --check exits 1 unless cut-view extraction is >= 3x the reference rate and
// the intra-graph mode is >= 2x single-thread (the latter only judged when
// at least 2 workers resolve — a 1-core runner cannot speed anything up).
// --json writes runs[].graphs_per_sec for scripts/bench_regression.py and
// the BENCH_* artifact trail.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "local/view.hpp"
#include "support/view_reference.hpp"

using namespace lmds;
using graph::Graph;
using graph::Vertex;

int main(int argc, char** argv) {
  int vertices = 100'000;
  int threads = 0;  // 0 = hardware_concurrency
  int sample = 64;
  bench::Harness h("perf", argc, argv,
                   {{"--vertices", &vertices}, {"--threads", &threads}, {"--sample", &sample}});
  if (vertices < 64) vertices = 64;
  if (sample < 1) sample = 1;
  const int workers = common::resolve_thread_count(threads);

  // Each run: graphs_per_sec is views/sec or solves/sec on the optimized
  // path, reference_per_sec the same unit on the reference / single-thread
  // arm.
  std::vector<bench::Fields> runs;
  const auto add_run = [&](const char* name, double fast_per_sec, double ref_per_sec,
                           double speedup) {
    runs.push_back({{"name", bench::json_str(name)},
                    {"graphs_per_sec", bench::json_num(fast_per_sec, 2)},
                    {"reference_per_sec", bench::json_num(ref_per_sec, 2)},
                    {"speedup", bench::json_num(speedup, 2)}});
  };

  // -------------------------------------------------------------------- 1.
  // Flooded gather: small enough that the reference (per-vertex GraphBuilder
  // over the known edge set) finishes at every vertex.
  {
    const Graph g = graph::gen::grid(32, 32);
    const local::Network net(g);
    constexpr int kRadius = 3;
    constexpr int kIters = 3;

    const auto fast_start = std::chrono::steady_clock::now();
    for (int it = 0; it < kIters; ++it) {
      local::TrafficStats stats;
      (void)local::gather_views(net, kRadius, &stats);
    }
    const double fast_secs = bench::seconds_since(fast_start) / kIters;

    const auto ref_start = std::chrono::steady_clock::now();
    {
      local::TrafficStats stats;
      (void)local::detail::gather_views_reference(net, kRadius, &stats);
    }
    const double ref_secs = bench::seconds_since(ref_start);

    const double fast_rate = g.num_vertices() / fast_secs;
    const double ref_rate = g.num_vertices() / ref_secs;
    const double speedup = ref_secs / fast_secs;
    std::printf("gather_flooded  %6d vertices r=%d   fast %10.0f views/s   ref %10.0f views/s   %6.1fx\n",
                g.num_vertices(), kRadius, fast_rate, ref_rate, speedup);
    add_run("gather_flooded", fast_rate, ref_rate, speedup);
  }

  // -------------------------------------------------------------------- 2.
  // Cut-view extraction at scale: the fast path visits every vertex; the
  // reference is timed on `sample` evenly-spaced centres and extrapolated.
  int side = 1;
  while ((side + 1) * (side + 1) <= vertices) ++side;
  const Graph big = graph::gen::grid(side, side);
  const local::Network big_net(big);
  constexpr int kCutRadius = 3;
  {
    const auto fast_start = std::chrono::steady_clock::now();
    (void)local::cut_views(big_net, kCutRadius, /*threads=*/1);
    const double fast_secs = bench::seconds_since(fast_start);

    const int probes = std::min(sample, big.num_vertices());
    const auto ref_start = std::chrono::steady_clock::now();
    for (int i = 0; i < probes; ++i) {
      const auto centre =
          static_cast<Vertex>(static_cast<long long>(i) * big.num_vertices() / probes);
      (void)local::detail::cut_view_reference(big_net, centre, kCutRadius);
    }
    const double ref_secs_per_view = bench::seconds_since(ref_start) / probes;

    const double fast_rate = big.num_vertices() / fast_secs;
    const double ref_rate = 1.0 / ref_secs_per_view;
    const double speedup = fast_rate / ref_rate;
    std::printf("cut_views       %6d vertices r=%d   fast %10.0f views/s   ref %10.0f views/s   %6.1fx\n",
                big.num_vertices(), kCutRadius, fast_rate, ref_rate, speedup);
    add_run("cut_views", fast_rate, ref_rate, speedup);
    h.gate(speedup >= 3.0, "cut-view extraction %.2fx reference (need >= 3x)", speedup);
  }

  // -------------------------------------------------------------------- 3.
  // Intra-graph threading: one huge solve through the executor, sequential
  // vs sharded, cache bypassed so both arms compute. The solutions must be
  // identical — the mode's whole contract.
  {
    api::Request req;
    api::BatchOptions opts;
    opts.threads = 1;
    api::BatchExecutor executor(opts);
    const Graph* graphs[] = {&big};

    const auto timed_solve = [&](int intra) {
      api::BatchOverrides over;
      over.bypass_cache = true;
      over.intra_graph_threads = intra;
      const auto start = std::chrono::steady_clock::now();
      auto responses = executor.run_batch("ksv", graphs, req, over);
      return std::pair{bench::seconds_since(start), std::move(responses[0].solution)};
    };

    const auto [seq_secs, seq_solution] = timed_solve(1);
    const auto [par_secs, par_solution] = timed_solve(workers);
    if (seq_solution != par_solution) {
      std::fprintf(stderr,
                   "DIFFERENTIAL FAILURE: ksv solutions differ between intra_threads=1 "
                   "and intra_threads=%d\n",
                   workers);
      return 1;
    }

    const double speedup = seq_secs / par_secs;
    std::printf("intra_solve     %6d vertices ksv   1 thr %8.2f s      %2d thr %8.2f s      %6.1fx\n",
                big.num_vertices(), seq_secs, workers, par_secs, speedup);
    add_run("intra_solve", 1.0 / par_secs, 1.0 / seq_secs, speedup);
    h.gate(workers < 2 || speedup >= 2.0,
           "intra-graph mode %.2fx single-thread with %d workers (need >= 2x)", speedup, workers);
  }

  h.write_json(
      {{"vertices", std::to_string(big.num_vertices())}, {"threads", std::to_string(workers)}},
      runs);
  return h.exit_code();
}
