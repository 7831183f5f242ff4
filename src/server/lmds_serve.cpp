// lmds_serve — the long-lived batch-serving front-end. Owns one ServerCore
// (sharded batch executor + LRU response cache + graph store)
// and answers protocol v2 (src/server/protocol.hpp) over the newline-
// delimited JSON/TCP line protocol, plus — with --http-port — the HTTP/1.1
// front-end of src/server/http.hpp over the same core. See README.md
// "Serving" for the protocol by example.
//
//   $ ./lmds_serve --port 7411 --http-port 7412 --threads 4
//         --cache-capacity 4096 --snapshot cache.lmds
//
// --snapshot FILE warms the response cache from FILE at startup (when it
// exists) and saves it back on clean shutdown, so a restarted server answers
// replayed batches from cache; the save_cache / load_cache admin verbs do
// the same on demand, at client-chosen names confined to --snapshot-dir.
//
// Cluster mode (src/cluster/, docs/CLUSTER.md):
//
//   workers:  ./lmds_serve --port 7421 --lease-ttl-ms 30000
//             ./lmds_serve --port 7422 --lease-ttl-ms 30000
//   router:   ./lmds_serve --port 7411 --router
//                 --peer 127.0.0.1:7421 --peer 127.0.0.1:7422
//
// The router consistent-hashes graph handles across the peers, fans solve
// batches out, and reassembles the responses bit-identical to a single
// server. --max-namespace-bytes / --max-namespace-inflight bound one
// tenant's store footprint and concurrency where its puts and solves run
// (a router forwards routed traffic without consulting them).
//
// Exit codes: 0 clean shutdown; 1 startup failure (bad flags, bind error).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "cluster/router.hpp"
#include "server/server.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lmds_serve [--host H] [--port P] [--port-file FILE]\n"
               "                  [--http-port P] [--http-port-file FILE]\n"
               "                  [--threads N] [--shard-size N] [--cache-capacity N]\n"
               "                  [--store-capacity N] [--max-connections N]\n"
               "                  [--stats-all-namespaces]\n"
               "                  [--snapshot FILE] [--snapshot-dir DIR | --no-snapshot-verbs]\n"
               "                  [--max-line-bytes N] [--max-graph-vertices N]\n"
               "                  [--max-batch-graphs N]\n"
               "                  [--lease-ttl-ms N] [--max-namespace-bytes N]\n"
               "                  [--max-namespace-inflight N]\n"
               "                  [--router --peer HOST:PORT ...]\n"
               "defaults: 127.0.0.1:7411, threads 0 (hardware), shard_size 4,\n"
               "          cache 4096 entries, graph store 1024 graphs,\n"
               "          max 256 concurrent connections, HTTP disabled;\n"
               "          --port/--http-port 0 picks an ephemeral port\n"
               "          (printed on stdout and to --port-file/--http-port-file).\n"
               "Client save_cache/load_cache paths resolve under --snapshot-dir\n"
               "(default: the working directory); --no-snapshot-verbs disables them.\n"
               "--snapshot itself is operator-local and unrestricted.\n"
               "--lease-ttl-ms: pins made over a connection expire that many ms\n"
               "after the owner's last touch (0 = never, the default).\n"
               "--max-namespace-bytes / --max-namespace-inflight: per-tenant\n"
               "store-size and solve-concurrency quotas (0 = unlimited).\n"
               "--router turns this server into a cluster coordinator over the\n"
               "--peer workers (at least one required; see docs/CLUSTER.md).\n");
  return 1;
}

// The same strict parser mds_cli uses for --param values: trailing garbage
// and out-of-range values are rejected, never wrapped.
bool parse_int_flag(const char* raw, int min, int max, int* out) {
  const auto v = lmds::api::parse_param_value(raw, lmds::api::ParamValue::Type::Int);
  if (!v || v->as_int() < min || v->as_int() > max) return false;
  *out = v->as_int();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lmds;

  server::ServerOptions opts;
  opts.port = 7411;
  opts.core.batch.threads = 0;  // hardware concurrency
  opts.core.batch.cache_capacity = 4096;
  std::string snapshot;
  std::string port_file;
  std::string http_port_file;
  bool router_mode = false;
  cluster::RouterOptions router_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    int parsed = 0;
    if (arg == "--host" && value) {
      opts.host = value;
      ++i;
    } else if (arg == "--port" && value && parse_int_flag(value, 0, 65535, &parsed)) {
      opts.port = parsed;
      ++i;
    } else if (arg == "--port-file" && value) {
      port_file = value;
      ++i;
    } else if (arg == "--http-port" && value && parse_int_flag(value, 0, 65535, &parsed)) {
      opts.http_port = parsed;
      ++i;
    } else if (arg == "--http-port-file" && value) {
      http_port_file = value;
      ++i;
    } else if (arg == "--max-connections" && value && parse_int_flag(value, 1, 1 << 20, &parsed)) {
      opts.max_connections = static_cast<std::size_t>(parsed);
      ++i;
    } else if (arg == "--store-capacity" && value && parse_int_flag(value, 0, 1 << 30, &parsed)) {
      opts.core.store_capacity = static_cast<std::size_t>(parsed);
      ++i;
    } else if (arg == "--stats-all-namespaces") {
      opts.core.stats_all_namespaces = true;
    } else if (arg == "--threads" && value && parse_int_flag(value, 0, 4096, &parsed)) {
      opts.core.batch.threads = parsed;
      ++i;
    } else if (arg == "--shard-size" && value && parse_int_flag(value, 1, 1 << 20, &parsed)) {
      opts.core.batch.shard_size = parsed;
      ++i;
    } else if (arg == "--cache-capacity" && value &&
               parse_int_flag(value, 0, 1 << 30, &parsed)) {
      opts.core.batch.cache_capacity = static_cast<std::size_t>(parsed);
      ++i;
    } else if (arg == "--snapshot" && value) {
      snapshot = value;
      ++i;
    } else if (arg == "--snapshot-dir" && value) {
      opts.core.snapshot_dir = value;
      ++i;
    } else if (arg == "--no-snapshot-verbs") {
      opts.core.snapshot_dir.clear();
    } else if (arg == "--max-line-bytes" && value &&
               parse_int_flag(value, 64, 1 << 30, &parsed)) {
      opts.core.limits.max_line_bytes = static_cast<std::size_t>(parsed);
      ++i;
    } else if (arg == "--max-graph-vertices" && value &&
               parse_int_flag(value, 1, 1 << 30, &parsed)) {
      opts.core.limits.max_graph_vertices = parsed;
      ++i;
    } else if (arg == "--max-batch-graphs" && value &&
               parse_int_flag(value, 1, 1 << 30, &parsed)) {
      opts.core.limits.max_batch_graphs = static_cast<std::size_t>(parsed);
      ++i;
    } else if (arg == "--lease-ttl-ms" && value &&
               parse_int_flag(value, 0, 1 << 30, &parsed)) {
      opts.core.lease_ttl_ms = parsed;
      ++i;
    } else if (arg == "--max-namespace-bytes" && value &&
               parse_int_flag(value, 0, 1 << 30, &parsed)) {
      opts.core.limits.max_namespace_store_bytes = static_cast<std::uint64_t>(parsed);
      ++i;
    } else if (arg == "--max-namespace-inflight" && value &&
               parse_int_flag(value, 0, 1 << 20, &parsed)) {
      opts.core.limits.max_namespace_inflight = parsed;
      ++i;
    } else if (arg == "--router") {
      router_mode = true;
    } else if (arg == "--peer" && value) {
      router_opts.peers.emplace_back(value);
      ++i;
    } else {
      std::fprintf(stderr, "lmds_serve: bad flag or value: %s\n", arg.c_str());
      return usage();
    }
  }

  if (!http_port_file.empty() && opts.http_port < 0) {
    // Fail fast: silently never writing the file would hang any supervisor
    // polling it for the bound port.
    std::fprintf(stderr, "lmds_serve: --http-port-file requires --http-port\n");
    return usage();
  }
  if (router_mode && router_opts.peers.empty()) {
    std::fprintf(stderr, "lmds_serve: --router requires at least one --peer HOST:PORT\n");
    return usage();
  }
  if (!router_mode && !router_opts.peers.empty()) {
    std::fprintf(stderr, "lmds_serve: --peer only makes sense with --router\n");
    return usage();
  }

  try {
    server::Server srv(opts);

    // The router must be installed before serving starts (the dispatch
    // override is read unsynchronized from connection threads) and must
    // outlive the server's connection threads, which serve() joins.
    std::unique_ptr<cluster::Router> router;
    if (router_mode) {
      router = std::make_unique<cluster::Router>(router_opts, srv.core());
      router->install();
      std::fprintf(stderr, "lmds_serve: routing across %zu peers\n",
                   router->ring().size());
    }

    if (!snapshot.empty()) {
      // A missing snapshot is the normal cold start; a corrupt one is worth
      // a warning but not a refusal to serve.
      if (std::ifstream probe(snapshot, std::ios::binary); probe) {
        try {
          srv.executor().cache().load_file(snapshot);
          std::fprintf(stderr, "lmds_serve: warmed %zu cache entries from %s\n",
                       srv.executor().cache_stats().size, snapshot.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "lmds_serve: ignoring snapshot %s: %s\n", snapshot.c_str(),
                       e.what());
        }
      }
    }

    srv.bind_and_listen();
    std::printf("lmds_serve listening on %s:%d\n", opts.host.c_str(), srv.port());
    if (srv.http_port() >= 0) {
      std::printf("lmds_serve HTTP on %s:%d\n", opts.host.c_str(), srv.http_port());
    }
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      pf << srv.port() << '\n';
      if (!pf) {
        std::fprintf(stderr, "lmds_serve: cannot write %s\n", port_file.c_str());
        return 1;
      }
    }
    if (!http_port_file.empty() && srv.http_port() >= 0) {
      std::ofstream pf(http_port_file, std::ios::trunc);
      pf << srv.http_port() << '\n';
      if (!pf) {
        std::fprintf(stderr, "lmds_serve: cannot write %s\n", http_port_file.c_str());
        return 1;
      }
    }

    srv.serve();

    if (!snapshot.empty()) {
      try {
        srv.executor().cache().save_file(snapshot);
        std::fprintf(stderr, "lmds_serve: saved %zu cache entries to %s\n",
                     srv.executor().cache_stats().size, snapshot.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lmds_serve: snapshot save failed: %s\n", e.what());
      }
    }
    const server::ServerCounters c = srv.counters();
    std::fprintf(stderr,
                 "lmds_serve: shutdown after %llu connections, %llu requests, "
                 "%llu graphs\n",
                 static_cast<unsigned long long>(c.connections),
                 static_cast<unsigned long long>(c.requests),
                 static_cast<unsigned long long>(c.graphs_solved));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmds_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
