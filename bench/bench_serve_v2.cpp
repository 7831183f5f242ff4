// E12 — protocol v2 serving throughput: repeated solve-by-handle vs
// re-sending the edge list on every request, measured end-to-end through
// the socket-free Session core (JSON parse -> decode/handle resolve ->
// executor -> response encode), which is exactly what both transports run
// per request. The workload is the issue's motivating shape — many queries
// over one large graph: a 10k-vertex grid solved repeatedly with a warm
// response cache, so the measured difference is pure request-path overhead
// (parsing and decoding a ~200KB edge list vs resolving a 17-byte handle).
//
// A second row times the warm 8-handle batch: 8 outerplanar graphs of
// 300-1000 vertices, all cached, sent with "batch":{"threads":1} and with
// {"threads":4} (shard size 4, the server default, so 2 shards). An all-hit
// batch is answered on the calling thread, so the two should cost the same.
//
//   $ ./bench_serve_v2 [--vertices N] [--iters N] [--check] [--json FILE]
//
// --check exits 1 unless solve-by-handle is at least 2x the inline-edge
// throughput — the regression gate CI runs (acceptance criterion of the
// protocol-v2 redesign) — and unless the median warm 8-handle request at 4
// threads takes at most 1.25x the 1-thread one. --json writes the
// measurements for the BENCH_* artifact trail; its runs[].graphs_per_sec is
// the inline path (one graph per request), the figure
// scripts/bench_regression.py ratchets; the warm row is top-level fields.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "server/json.hpp"
#include "server/server.hpp"

using namespace lmds;

int main(int argc, char** argv) {
  int vertices = 10'000;
  int iters = 40;
  bench::Harness h("serve_v2", argc, argv, {{"--vertices", &vertices}, {"--iters", &iters}});
  if (vertices < 4) vertices = 4;
  if (iters < 1) iters = 1;

  // A square-ish grid with ~`vertices` vertices: large, planar (excluded-
  // minor family), cheap enough per solve that request overhead dominates.
  int side = 1;
  while ((side + 1) * (side + 1) <= vertices) ++side;
  const graph::Graph g = graph::gen::grid(side, side);

  server::ServerOptions opts;
  opts.core.batch.threads = 1;
  opts.core.batch.cache_capacity = 64;
  opts.core.snapshot_dir.clear();
  server::Server server(opts);

  const std::string graph_json = server::encode_graph_json(g);
  const std::string inline_line =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[" + graph_json + "]}";

  // Upload once; solve by handle from then on.
  const server::JsonValue put =
      server::json_parse(server.handle_line("{\"op\":\"put_graph\",\"graph\":" + graph_json + "}"));
  if (!put.find("ok")->as_bool()) {
    std::fprintf(stderr, "put_graph failed\n");
    return 1;
  }
  const std::string handle = put.find("handle")->as_string();
  const std::string handle_line =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}";

  // Warm the response cache through both spellings (same cache key), then
  // measure: every timed request is a cache hit, so the difference is the
  // request path itself.
  (void)server.handle_line(inline_line);
  (void)server.handle_line(handle_line);

  const auto time_line = [&](const std::string& line) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const std::string response = server.handle_line(line);
      if (response.find("\"ok\":true") == std::string::npos) {
        std::fprintf(stderr, "solve failed: %s\n", response.substr(0, 200).c_str());
        std::exit(1);
      }
    }
    return bench::seconds_since(start);
  };

  const double inline_secs = time_line(inline_line);
  const double handle_secs = time_line(handle_line);
  const double inline_rate = iters / inline_secs;
  const double handle_rate = iters / handle_secs;
  const double speedup = handle_rate / inline_rate;

  // The warm 8-handle row: put and solve each graph once, then time single
  // requests, alternating the two thread counts so host drift hits both.
  std::string handles;
  for (int i = 0; i < 8; ++i) {
    const graph::Graph og = graph::gen::random_maximal_outerplanar(300 + 100 * i, 1000 + i);
    const server::JsonValue stored = server::json_parse(server.handle_line(
        "{\"op\":\"put_graph\",\"graph\":" + server::encode_graph_json(og) + "}"));
    if (i) handles += ',';
    handles += '"' + stored.find("handle")->as_string() + '"';
  }
  const auto warm_line = [&](int threads) {
    return "{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"threads\":" +
           std::to_string(threads) + "},\"graphs\":[" + handles + "]}";
  };
  const std::string warm_t1 = warm_line(1);
  const std::string warm_t4 = warm_line(4);
  (void)server.handle_line(warm_t1);  // the misses: every later request hits
  const int warm_iters = 10 * iters;
  std::vector<double> t1_us;
  std::vector<double> t4_us;
  for (int i = 0; i < warm_iters; ++i) {
    for (auto [line, samples] : {std::pair{&warm_t1, &t1_us}, std::pair{&warm_t4, &t4_us}}) {
      const auto start = std::chrono::steady_clock::now();
      const std::string response = server.handle_line(*line);
      samples->push_back(1e6 * bench::seconds_since(start));
      if (response.find("\"cache_misses\":0") == std::string::npos) {
        std::fprintf(stderr, "warm solve missed: %s\n", response.substr(0, 200).c_str());
        std::exit(1);
      }
    }
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double warm_t1_us = median(t1_us);
  const double warm_t4_us = median(t4_us);
  const double warm_ratio = warm_t4_us / warm_t1_us;

  std::printf("Serve v2 — %d-vertex grid (%d edges), %d warm solves per path\n\n",
              g.num_vertices(), g.num_edges(), iters);
  std::printf("%-22s %10s %14s %14s\n", "request path", "seconds", "req/sec", "bytes/req");
  std::printf("%s\n", std::string(64, '-').c_str());
  std::printf("%-22s %10.4f %14.1f %14zu\n", "inline edge list (v1)", inline_secs, inline_rate,
              inline_line.size());
  std::printf("%-22s %10.4f %14.1f %14zu\n", "graph handle (v2)", handle_secs, handle_rate,
              handle_line.size());
  std::printf("\nsolve-by-handle speedup: %.1fx (wire bytes shrink %zux)\n", speedup,
              inline_line.size() / handle_line.size());
  std::printf("\nwarm 8-handle batch (outerplanar, 300-1000 vertices), median of %d requests\n",
              warm_iters);
  std::printf("%-22s %10s\n", "batch threads", "us/req");
  std::printf("%s\n", std::string(33, '-').c_str());
  std::printf("%-22s %10.1f\n", "1", warm_t1_us);
  std::printf("%-22s %10.1f\n", "4", warm_t4_us);
  std::printf("4 threads / 1 thread: %.2fx\n", warm_ratio);

  h.write_json({{"vertices", std::to_string(g.num_vertices())},
                {"iters", std::to_string(iters)},
                {"inline_req_per_sec", bench::json_num(inline_rate, 2)},
                {"handle_req_per_sec", bench::json_num(handle_rate, 2)},
                {"handle_speedup", bench::json_num(speedup, 3)},
                {"warm8_t1_us", bench::json_num(warm_t1_us, 2)},
                {"warm8_t4_us", bench::json_num(warm_t4_us, 2)},
                {"warm8_t4_over_t1", bench::json_num(warm_ratio, 3)}},
               {{{"path", bench::json_str("inline")},
                 {"graphs_per_sec", bench::json_num(inline_rate, 2)}}});
  h.gate(speedup >= 2.0, "solve-by-handle is only %.2fx inline throughput (need >= 2x)",
         speedup);
  h.gate(warm_ratio <= 1.25,
         "a warm 8-handle batch at 4 threads takes %.2fx the 1-thread time (need <= 1.25x)",
         warm_ratio);
  return h.exit_code();
}
