// Hot-path perf bench: CSR-native view extraction, the local cut kernel,
// the intra-graph threading mode and the two server baselines, against the
// reference (seed) implementations they must match bit-for-bit
// (tests/test_hotpath.cpp holds the differential proof; this bench holds
// the speed claim).
//
// Five runs:
//   * gather_flooded — flooded gather_views (radius 3) on a ~1k-vertex grid,
//     fast vs reference, both over every vertex;
//   * cut_views      — cut-view extraction on a --vertices grid (default
//     100k): the fast path over every vertex vs the reference extrapolated
//     from a --sample subset (the reference rebuilds a full graph per view —
//     running it at every vertex would take hours by design);
//   * intra_solve    — ksv solves of the same grid through BatchExecutor,
//     intra_threads=1 vs intra_threads=hardware, cache bypassed, solutions
//     compared differentially; each arm is the median of 5 alternating
//     samples, each sample a burst of back-to-back solves lasting at least
//     0.5 s (a shared host grants a short burst about one CPU), and records
//     the CPU it was granted per wall second;
//   * local_cuts     — Algorithm 1's step 2 for both variants
//     (cuts::interesting_vertices, cuts::vertices_in_local_two_cuts) at
//     r = 4 on a random maximal outerplanar graph of min(1200, --vertices)
//     vertices, kernel vs the seed predicates (cuts::detail::*_reference);
//     a set mismatch exits 1; then Algorithm 1 at t = 3's paper radii,
//     centralized, on random_tree(2000), theta_chain(230, 2) and a
//     1200-vertex random maximal outerplanar graph (scaled down below the
//     default --vertices), fast path only;
//   * baselines      — greedy on a 100x100 grid and single-thread ksv on the
//     --vertices grid vs their seed code (*_reference); a set mismatch
//     exits 1.
//
//   $ ./bench_perf [--vertices N] [--threads N] [--sample N] [--check] [--json FILE]
//
// --check exits 1 unless cut-view extraction is >= 3x the reference rate,
// the intra-graph mode is >= 2x single-thread (judged only when at least 2
// workers resolve and the parallel arm was granted at least 2 CPUs — a
// host that grants one cannot speed anything up; otherwise the row prints
// "unresolved"), the local cut kernel is >= 5x the reference for each
// variant, each paper-radii instance takes <= 1 s of CPU, greedy is >= 20x
// and ksv >= 2x their seed code. --json writes
// runs[].graphs_per_sec (views, solves or classified vertices per second)
// for scripts/bench_regression.py and the BENCH_* artifact trail.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/executor.hpp"
#include "api/registry.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "core/algorithm1.hpp"
#include "core/baselines.hpp"
#include "cuts/interesting.hpp"
#include "cuts/local_cuts.hpp"
#include "graph/generators.hpp"
#include "local/view.hpp"
#include "solve/greedy.hpp"
#include "support/baseline_reference.hpp"
#include "support/cut_reference.hpp"
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
  // identical — the mode's whole contract. Each arm is the median of
  // kSamples samples, the arms alternating; a sample is the mean solve time
  // of a burst of back-to-back solves lasting at least kBurstSecs, since a
  // shared host grants a burst of a few tens of milliseconds about one CPU.
  // Each arm records the CPU seconds it used per wall second. The gate is
  // judged only when the sharded arm was granted at least 2 CPUs: a host
  // that grants one cannot speed anything up, however many workers resolve.
  {
    constexpr int kSamples = 5;
    constexpr double kBurstSecs = 0.5;
    api::Request req;
    api::BatchOptions opts;
    opts.threads = 1;
    api::BatchExecutor executor(opts);
    const Graph* graphs[] = {&big};

    struct Arm {
      int intra;
      std::vector<double> secs;
      double cpu = 0;
      double wall = 0;
      double cpu_per_wall() const { return wall > 0 ? cpu / wall : 0; }
    };
    Arm seq{1, {}};
    Arm par{workers, {}};
    std::optional<std::vector<Vertex>> first_solution;
    const auto timed_burst = [&](Arm& arm) {
      api::BatchOverrides over;
      over.bypass_cache = true;
      over.intra_graph_threads = arm.intra;
      const double cpu_start = bench::cpu_seconds();
      const auto start = std::chrono::steady_clock::now();
      int solves = 0;
      bool same = true;
      do {
        auto responses = executor.run_batch("ksv", graphs, req, over);
        if (!first_solution) first_solution = responses[0].solution;
        same = same && responses[0].solution == *first_solution;
        ++solves;
      } while (bench::seconds_since(start) < kBurstSecs);
      const double secs = bench::seconds_since(start);
      arm.cpu += bench::cpu_seconds() - cpu_start;
      arm.wall += secs;
      arm.secs.push_back(secs / solves);
      return same;
    };
    for (int i = 0; i < kSamples; ++i) {
      if (!timed_burst(seq) || !timed_burst(par)) {
        std::fprintf(stderr,
                     "DIFFERENTIAL FAILURE: ksv solutions differ between intra_threads=1 "
                     "and intra_threads=%d\n",
                     workers);
        return 1;
      }
    }

    const double seq_secs = bench::median(seq.secs);
    const double par_secs = bench::median(par.secs);
    const double speedup = seq_secs / par_secs;
    std::printf("intra_solve     %6d vertices ksv   1 thr %8.3f s      %2d thr %8.3f s      %6.1fx"
                "   cpu/wall %.2f | %.2f\n",
                big.num_vertices(), seq_secs, workers, par_secs, speedup, seq.cpu_per_wall(),
                par.cpu_per_wall());
    runs.push_back({{"name", bench::json_str("intra_solve")},
                    {"graphs_per_sec", bench::json_num(1.0 / par_secs, 2)},
                    {"reference_per_sec", bench::json_num(1.0 / seq_secs, 2)},
                    {"speedup", bench::json_num(speedup, 2)},
                    {"seq_cpu_per_wall", bench::json_num(seq.cpu_per_wall(), 3)},
                    {"par_cpu_per_wall", bench::json_num(par.cpu_per_wall(), 3)}});
    const bool judged = workers >= 2 && par.cpu_per_wall() >= 2.0;
    if (workers >= 2 && !judged) {
      std::printf("intra_solve     unresolved: the %d-thread arm was granted %.2f CPUs "
                  "(need >= 2 to judge the >= 2x gate)\n",
                  workers, par.cpu_per_wall());
    }
    h.gate(!judged || speedup >= 2.0,
           "intra-graph mode %.2fx single-thread with %d workers granted %.2f CPUs (need >= 2x)",
           speedup, workers, par.cpu_per_wall());
  }

  // -------------------------------------------------------------------- 4.
  // Algorithm 1's step 2, both variants: one local cut kernel per call vs
  // the seed predicates' whole-graph BFS per pair. Both must pick the same
  // sets.
  {
    using Step2 = std::vector<Vertex> (*)(const Graph&, int);
    constexpr int kCutsRadius = 4;
    const Graph g = graph::gen::random_maximal_outerplanar(std::min(1200, vertices), 2025);
    const auto timed = [&](Step2 step2) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<Vertex> set = step2(g, kCutsRadius);
      return std::pair{bench::seconds_since(start), std::move(set)};
    };
    struct Variant {
      const char* name;
      Step2 fast;
      Step2 reference;
    };
    const Variant variants[] = {
        {"mds", cuts::interesting_vertices, cuts::detail::interesting_vertices_reference},
        {"mvc", cuts::vertices_in_local_two_cuts,
         cuts::detail::vertices_in_local_two_cuts_reference}};
    double fast_total = 0;
    double ref_total = 0;
    for (const Variant& variant : variants) {
      const auto [fast_secs, fast_set] = timed(variant.fast);
      const auto [ref_secs, ref_set] = timed(variant.reference);
      if (fast_set != ref_set) {
        std::fprintf(stderr, "DIFFERENTIAL FAILURE: %s step 2 differs from the reference\n",
                     variant.name);
        return 1;
      }
      const double speedup = ref_secs / fast_secs;
      std::printf("local_cuts %s  %6d vertices r=%d   fast %8.1f ms        ref %8.1f ms         %6.1fx\n",
                  variant.name, g.num_vertices(), kCutsRadius, fast_secs * 1e3, ref_secs * 1e3,
                  speedup);
      h.gate(speedup >= 5.0, "local cut kernel %.2fx reference on %s step 2 (need >= 5x)",
             speedup, variant.name);
      fast_total += fast_secs;
      ref_total += ref_secs;
    }
    add_run("local_cuts", g.num_vertices() / fast_total, g.num_vertices() / ref_total,
            ref_total / fast_total);
  }

  // ------------------------------------------------------------------- 4b.
  // Algorithm 1 at t = 3's paper radii (radius1 = radius2 = 0), centralized,
  // fast path only: the seed predicates would take minutes. The instances
  // scale with --vertices up to their full size at the default 100k; under
  // --check each must take at most 1 s of CPU.
  {
    const auto scaled = [&](int full) {
      return std::max(4, static_cast<int>(static_cast<long long>(full) *
                                          std::min(vertices, 100'000) / 100'000));
    };
    const std::pair<const char*, Graph> instances[] = {
        {"tree", graph::gen::random_tree(scaled(2000), 2025)},
        {"theta", graph::gen::theta_chain(scaled(230), 2)},
        {"outerplanar", graph::gen::random_maximal_outerplanar(scaled(1200), 2025)}};
    core::Algorithm1Config cfg;
    cfg.t = 3;
    cfg.radius1 = 0;
    cfg.radius2 = 0;
    double cpu_total = 0;
    for (const auto& [name, g] : instances) {
      const double cpu_start = bench::cpu_seconds();
      const auto out = core::algorithm1(g, cfg);
      const double cpu = bench::cpu_seconds() - cpu_start;
      cpu_total += cpu;
      std::printf("paper_radii %-11s %5d vertices t=3  cpu %8.3f s   |S| %d\n", name,
                  g.num_vertices(), cpu, static_cast<int>(out.solution.size()));
      h.gate(cpu <= 1.0, "Algorithm 1 at t = 3's paper radii on %s took %.2f s of CPU (need <= 1 s)",
             name, cpu);
    }
    runs.push_back({{"name", bench::json_str("paper_radii")},
                    {"graphs_per_sec", bench::json_num(cpu_total > 0 ? 3 / cpu_total : 0, 2)},
                    {"cpu_s", bench::json_num(cpu_total, 3)}});
  }

  // -------------------------------------------------------------------- 5.
  // The server's two baselines against their seed code: greedy on a
  // 100x100 grid and single-thread ksv (the registry's k = 3) on the
  // --vertices grid. Each fast arm is the median of kSolves solves; the seed
  // runs once. Different sets exit 1.
  {
    constexpr int kSolves = 5;
    constexpr int kKsvThreshold = 3;
    const Graph grid = graph::gen::grid(100, 100);
    using Solve = std::function<std::vector<Vertex>()>;
    struct Baseline {
      const char* name;
      const Graph& graph;
      Solve fast;
      Solve reference;
      double need;
    };
    const Baseline baselines[] = {
        {"greedy", grid, [&] { return solve::greedy_mds(grid); },
         [&] { return solve::detail::greedy_mds_reference(grid); }, 20.0},
        {"ksv", big, [&] { return core::ksv_style(big, kKsvThreshold, 1); },
         [&] { return core::detail::ksv_style_reference(big, kKsvThreshold, 1); }, 2.0}};
    double fast_total = 0;
    double ref_total = 0;
    for (const Baseline& b : baselines) {
      std::vector<double> fast_secs;
      std::vector<Vertex> fast_set;
      for (int i = 0; i < kSolves; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fast_set = b.fast();
        fast_secs.push_back(bench::seconds_since(start));
      }
      const auto ref_start = std::chrono::steady_clock::now();
      const std::vector<Vertex> ref_set = b.reference();
      const double ref_secs = bench::seconds_since(ref_start);
      if (fast_set != ref_set) {
        std::fprintf(stderr, "DIFFERENTIAL FAILURE: %s differs from the reference\n", b.name);
        return 1;
      }
      const double fast = bench::median(fast_secs);
      const double speedup = ref_secs / fast;
      std::printf("baselines %-6s%6d vertices       fast %8.2f ms        ref %8.1f ms         %6.1fx\n",
                  b.name, b.graph.num_vertices(), fast * 1e3, ref_secs * 1e3, speedup);
      h.gate(speedup >= b.need, "%s %.2fx its seed code (need >= %.0fx)", b.name, speedup, b.need);
      fast_total += fast;
      ref_total += ref_secs;
    }
    add_run("baselines", 2.0 / fast_total, 2.0 / ref_total, ref_total / fast_total);
  }

  h.write_json(
      {{"vertices", std::to_string(big.num_vertices())}, {"threads", std::to_string(workers)}},
      runs);
  return h.exit_code();
}
