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

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "local/view.hpp"
#include "support/view_reference.hpp"

namespace {

using namespace lmds;
using graph::Graph;
using graph::Vertex;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string json_num(double v, int precision) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

struct Run {
  std::string name;
  double fast_per_sec = 0;  // views/sec or solves/sec on the optimized path
  double ref_per_sec = 0;   // same unit on the reference / single-thread arm
  double speedup = 0;
};

void append_run(std::string& runs_json, const Run& r) {
  if (!runs_json.empty()) runs_json += ",\n";
  runs_json += "    {\"name\": \"" + r.name +
               "\", \"graphs_per_sec\": " + json_num(r.fast_per_sec, 2) +
               ", \"reference_per_sec\": " + json_num(r.ref_per_sec, 2) +
               ", \"speedup\": " + json_num(r.speedup, 2) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  int vertices = 100'000;
  int threads = 0;  // 0 = hardware_concurrency
  int sample = 64;
  bool check = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--vertices") && i + 1 < argc) {
      vertices = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--sample") && i + 1 < argc) {
      sample = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf [--vertices N] [--threads N] [--sample N] "
                   "[--check] [--json FILE]\n");
      return 2;
    }
  }
  if (vertices < 64) vertices = 64;
  if (sample < 1) sample = 1;
  const int workers = common::resolve_thread_count(threads);

  std::string runs_json;
  bool gate_failed = false;

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
    const double fast_secs = seconds_since(fast_start) / kIters;

    const auto ref_start = std::chrono::steady_clock::now();
    {
      local::TrafficStats stats;
      (void)local::detail::gather_views_reference(net, kRadius, &stats);
    }
    const double ref_secs = seconds_since(ref_start);

    Run r;
    r.name = "gather_flooded";
    r.fast_per_sec = g.num_vertices() / fast_secs;
    r.ref_per_sec = g.num_vertices() / ref_secs;
    r.speedup = ref_secs / fast_secs;
    std::printf("gather_flooded  %6d vertices r=%d   fast %10.0f views/s   ref %10.0f views/s   %6.1fx\n",
                g.num_vertices(), kRadius, r.fast_per_sec, r.ref_per_sec, r.speedup);
    append_run(runs_json, r);
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
    const double fast_secs = seconds_since(fast_start);

    const int probes = std::min(sample, big.num_vertices());
    const auto ref_start = std::chrono::steady_clock::now();
    for (int i = 0; i < probes; ++i) {
      const auto centre =
          static_cast<Vertex>(static_cast<long long>(i) * big.num_vertices() / probes);
      (void)local::detail::cut_view_reference(big_net, centre, kCutRadius);
    }
    const double ref_secs_per_view = seconds_since(ref_start) / probes;

    Run r;
    r.name = "cut_views";
    r.fast_per_sec = big.num_vertices() / fast_secs;
    r.ref_per_sec = 1.0 / ref_secs_per_view;
    r.speedup = r.fast_per_sec / r.ref_per_sec;
    std::printf("cut_views       %6d vertices r=%d   fast %10.0f views/s   ref %10.0f views/s   %6.1fx\n",
                big.num_vertices(), kCutRadius, r.fast_per_sec, r.ref_per_sec, r.speedup);
    append_run(runs_json, r);
    if (check && r.speedup < 3.0) {
      std::fprintf(stderr, "REGRESSION: cut-view extraction %.2fx reference (need >= 3x)\n",
                   r.speedup);
      gate_failed = true;
    }
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
      return std::pair{seconds_since(start), std::move(responses[0].solution)};
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

    Run r;
    r.name = "intra_solve";
    r.fast_per_sec = 1.0 / par_secs;
    r.ref_per_sec = 1.0 / seq_secs;
    r.speedup = seq_secs / par_secs;
    std::printf("intra_solve     %6d vertices ksv   1 thr %8.2f s      %2d thr %8.2f s      %6.1fx\n",
                big.num_vertices(), seq_secs, workers, par_secs, r.speedup);
    append_run(runs_json, r);
    if (check && workers >= 2 && r.speedup < 2.0) {
      std::fprintf(stderr,
                   "REGRESSION: intra-graph mode %.2fx single-thread with %d workers "
                   "(need >= 2x)\n",
                   r.speedup, workers);
      gate_failed = true;
    }
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"perf\",\n  \"vertices\": %d,\n  \"threads\": %d,\n"
                 "  \"runs\": [\n%s\n  ]\n}\n",
                 big.num_vertices(), workers, runs_json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return gate_failed ? 1 : 0;
}
