// loadbench — the repository's end-to-end benchmark: a single-process,
// seeded, closed-loop load generator against real lmds_serve processes.
//
//   loadbench --list
//   loadbench --self-test [--seed N]
//   loadbench --workload NAME --seed N --seconds S --trace 0|1
//             [--server-bin PATH] [--trace-dir DIR]
//
// A run generates the workload's inputs and from-scratch reference answers
// from --seed, sets the servers up three times (spawn, puts, cache warm-up,
// concurrent warm-up ops; setup_s is the median), then drives the last
// set-up for --seconds with one closed-loop thread per connection, checking
// every answer. --trace 1 adds
// the router probe (inline_routed) and the traced in-process replay
// (trace.hpp) and reports the per-layer metrics instead of the end-to-end
// ones. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status: 0 correct, 1 a wrong answer / path assertion / parity
// failure, 2 usage, 3 watchdog or infrastructure failure.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "procs.hpp"
#include "server/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace loadbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kSlices = 10;

/// Untimed ops every connection runs concurrently at the end of each set-up,
/// so first-concurrency costs (the router dialling more pooled worker
/// connections, new connection threads, first-touch allocations) stay out of
/// the timed window. The window continues the op stream after them.
constexpr std::uint64_t kWarmOps = 8;

/// Kills every server and exits if the run outlives its time limit.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s), [this] { return done_; })) {
            std::fprintf(stderr, "loadbench: watchdog: run exceeded %.0f s\n", limit_s);
            kill_all_servers();
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: it reads the members above
};

/// The servers and client connections of one set-up.
struct Deployment {
  std::vector<std::unique_ptr<ServerProc>> workers;  // routed topology only
  std::unique_ptr<ServerProc> front;                 // the server clients talk to
  std::vector<std::unique_ptr<SocketTransport>> conns;

  std::vector<ServerProc*> procs() const {
    std::vector<ServerProc*> out{front.get()};
    for (const auto& w : workers) out.push_back(w.get());
    return out;
  }
  /// The servers that own caches: the workers behind a router, else front.
  std::vector<ServerProc*> leaves() const {
    if (workers.empty()) return {front.get()};
    std::vector<ServerProc*> out;
    for (const auto& w : workers) out.push_back(w.get());
    return out;
  }
  void stop() {
    conns.clear();
    if (front) front->shutdown();  // router first: it holds worker connections
    for (auto& w : workers) w->shutdown();
  }
};

Deployment deploy(const std::string& bin, const Topology& topo) {
  Deployment d;
  const bool http = std::find(topo.http.begin(), topo.http.end(), true) != topo.http.end();
  if (topo.routed) {
    std::vector<std::string> router_args{"--router"};
    for (const int port : kWorkerPorts) {
      try {
        d.workers.push_back(std::make_unique<ServerProc>(bin, topo.flags, false, port));
      } catch (const std::exception&) {
        std::fprintf(stderr, "loadbench: port %d is taken; this run's ring differs\n", port);
        d.workers.push_back(std::make_unique<ServerProc>(bin, topo.flags, false));
      }
      router_args.push_back("--peer");
      router_args.push_back("127.0.0.1:" + std::to_string(d.workers.back()->port()));
    }
    router_args.insert(router_args.end(), topo.flags.begin(), topo.flags.end());
    d.front = std::make_unique<ServerProc>(bin, router_args, http);
  } else {
    d.front = std::make_unique<ServerProc>(bin, topo.flags, http);
  }
  for (const bool h : topo.http) {
    d.conns.push_back(
        std::make_unique<SocketTransport>(h ? d.front->http_port() : d.front->port(), h));
  }
  return d;
}

void warm_up(const Workload& w, const Deployment& d) {
  std::vector<Tally> tallies(d.conns.size());
  std::vector<std::string> errors(d.conns.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < d.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::uint64_t k = 0; k < kWarmOps; ++k) {
          w.run_op(*d.conns[c], static_cast<int>(c), k, tallies[c]);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < d.conns.size(); ++c) {
    if (!errors[c].empty()) throw std::runtime_error("warm-up op failed: " + errors[c]);
    if (tallies[c].failed || tallies[c].wrong || tallies[c].path_violations) {
      throw std::runtime_error("warm-up op failed: " + tallies[c].first_problem);
    }
  }
}

/// Lifetime cache evictions summed over the cache-owning servers.
double cache_evictions(const Deployment& d) {
  double total = 0;
  for (ServerProc* p : d.leaves()) {
    SocketTransport admin(p->port(), false);
    const lmds::server::JsonValue stats = lmds::server::json_parse(admin.exchange("{\"op\":\"stats\"}"));
    total += static_cast<double>(stats.find("cache")->find("evictions")->as_int());
  }
  return total;
}

std::string number(double v) {
  std::string out;
  lmds::server::json_append_double(out, v);
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool list = false;
  bool self_test = false;
  std::string server_bin;
  std::string trace_dir = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: loadbench --list\n"
               "       loadbench --self-test [--seed N]\n"
               "       loadbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--server-bin PATH] [--trace-dir DIR]\n");
  return 2;
}

int self_test(std::uint64_t seed) {
  int failures = 0;
  for (const auto& w : make_workloads()) {
    w->generate(seed);
    const std::uint64_t first = w->stream_digest();
    w->generate(seed);
    const std::uint64_t again = w->stream_digest();
    w->generate(seed + 1);
    const std::uint64_t other = w->stream_digest();
    const bool ok = first == again && first != other;
    std::printf("%-14s op-stream digest %016llx: same seed %s, next seed %s\n", w->name(),
                static_cast<unsigned long long>(first), first == again ? "identical" : "DIFFERS",
                first != other ? "differs" : "IDENTICAL");
    failures += ok ? 0 : 1;
  }
  const std::string cert = Workload::check_certificates(seed);
  std::printf("certificates: %s\n", cert.empty() ? "every family is K_{2,t}-minor-free at its t"
                                                 : cert.c_str());
  failures += cert.empty() ? 0 : 1;
  std::printf("self-test %s\n", failures ? "FAILED" : "passed");
  return failures ? 1 : 0;
}

int run(const Options& opt, Workload& w) {
  const Topology topo = w.topology();
  std::size_t http_conns = 0;
  for (const bool h : topo.http) http_conns += h ? 1 : 0;
  std::string flags;
  for (const std::string& f : topo.flags) flags += " " + f;
  std::printf("workload %s (seed %llu, %.0f s): %s\n", w.name(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, w.why());
  std::printf("host: nproc %u, compiler %s, build %s; servers: %s, flags:%s; connections: %zu "
              "line + %zu HTTP, closed loop\n",
              std::thread::hardware_concurrency(), LOADBENCH_COMPILER, LOADBENCH_BUILD_TYPE,
              topo.routed ? "router + 2 workers" : "1 lmds_serve",
              flags.empty() ? " (defaults)" : flags.c_str(), topo.http.size() - http_conns,
              http_conns);

  auto t0 = Clock::now();
  w.generate(opt.seed);
  std::printf("inputs + references: %.2f s; op-stream digest %016llx\n", seconds_since(t0),
              static_cast<unsigned long long>(w.stream_digest()));

  // Set up three times; the last deployment serves the timed window.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  Deployment d;
  for (int rep = 0; rep < kSetups; ++rep) {
    t0 = Clock::now();
    d = deploy(opt.server_bin, topo);
    std::vector<Transport*> conns;
    for (const auto& c : d.conns) conns.push_back(c.get());
    w.setup(conns);
    warm_up(w, d);
    setup_s.push_back(seconds_since(t0));
    if (rep + 1 < kSetups) d.stop();
  }
  std::sort(setup_s.begin(), setup_s.end());

  // The timed window: one closed-loop thread per connection, with server
  // CPU sampled at the boundaries of kSlices equal slices.
  const double evictions_before = cache_evictions(d);
  const std::size_t n_conns = d.conns.size();
  std::vector<Tally> tallies(n_conns);
  for (Tally& t : tallies) t.first_k = kWarmOps;
  std::vector<std::vector<double>> done_s(n_conns);  // completion time per op
  std::vector<double> finished(n_conns, 0);
  const auto server_cpu_now = [&] {
    double total = 0;
    for (ServerProc* p : d.procs()) total += p->cpu_seconds();
    return total;
  };
  std::atomic<bool> go{false};
  std::vector<double> cpu_at{server_cpu_now()};
  std::vector<double> at_s{0};  // slice boundaries as actually sampled
  double client_cpu = -self_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n_conns; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t k = kWarmOps; Clock::now() < deadline; ++k) {
        try {
          w.run_op(*d.conns[c], static_cast<int>(c), k, tallies[c]);
        } catch (const std::exception& e) {
          ++tallies[c].ops;
          tallies[c].problem(tallies[c].failed, std::string("connection failed: ") + e.what());
          break;
        }
        done_s[c].push_back(seconds_since(start));
      }
      finished[c] = seconds_since(start);
    });
  }
  go = true;
  for (int s = 1; s <= kSlices; ++s) {
    std::this_thread::sleep_until(start + std::chrono::duration<double>(opt.seconds * s / kSlices));
    cpu_at.push_back(server_cpu_now());
    at_s.push_back(seconds_since(start));
  }
  for (std::thread& t : threads) t.join();
  const double wall = *std::max_element(finished.begin(), finished.end());
  const double server_cpu = server_cpu_now() - cpu_at.front();
  client_cpu += self_cpu_seconds();
  const double evictions = cache_evictions(d) - evictions_before;
  double rss = 0;
  for (ServerProc* p : d.procs()) rss += p->peak_rss_mb();

  Tally total;
  for (const Tally& t : tallies) total.merge(t);
  w.post_check(tallies, total);

  RouterReport router;
  if (opt.trace && topo.routed) {
    std::vector<int> worker_ports;
    for (const auto& wp : d.workers) worker_ports.push_back(wp->port());
    router = measure_router(w, d.front->port(), worker_ports, 40);
  }
  const std::size_t connections = d.conns.size();
  d.stop();

  const double ops = static_cast<double>(std::max<std::uint64_t>(1, total.ops));

  // Throughput, CPU per op and p50 come from the fast side of the slice
  // distribution (the 20th percentile of per-slice costs, the 80th of rates):
  // outside load on this shared host only ever slows a slice, and it comes
  // and goes within a run, so the faster slices track the program's own
  // speed; a change that slows the program slows those slices too.
  std::vector<std::vector<double>> slice_latency(kSlices);
  for (std::size_t c = 0; c < n_conns; ++c) {
    for (std::size_t k = 0; k < done_s[c].size(); ++k) {
      const auto s = static_cast<std::size_t>(
          std::upper_bound(at_s.begin(), at_s.end(), done_s[c][k]) - at_s.begin() - 1);
      if (s < kSlices) slice_latency[s].push_back(tallies[c].latency_ms[k]);
    }
  }
  std::vector<double> slice_rate;
  std::vector<double> slice_cpu;
  std::vector<double> slice_p50;
  for (int s = 0; s < kSlices; ++s) {
    std::vector<double>& lat = slice_latency[s];
    const double n = static_cast<double>(std::max<std::size_t>(1, lat.size()));
    std::sort(lat.begin(), lat.end());
    slice_rate.push_back(static_cast<double>(lat.size()) / (at_s[s + 1] - at_s[s]));
    slice_cpu.push_back((cpu_at[s + 1] - cpu_at[s]) * 1e3 / n);
    slice_p50.push_back(quantile(lat, 0.50));
  }
  std::sort(slice_rate.begin(), slice_rate.end());
  std::sort(slice_cpu.begin(), slice_cpu.end());
  std::sort(slice_p50.begin(), slice_p50.end());
  constexpr double kFastSide = 0.2;
  // p99 over every slice but the one with the highest p99, so one stall of
  // the host (a descheduled vCPU) cannot set the tail by itself.
  std::size_t worst = 0;
  for (std::size_t s = 1; s < kSlices; ++s) {
    if (quantile(slice_latency[s], 0.99) > quantile(slice_latency[worst], 0.99)) worst = s;
  }
  std::vector<double> tail;
  for (std::size_t s = 0; s < kSlices; ++s) {
    if (s != worst) tail.insert(tail.end(), slice_latency[s].begin(), slice_latency[s].end());
  }
  std::sort(tail.begin(), tail.end());
  const std::uint64_t failed = total.failed + total.wrong;
  bool correct = total.wrong == 0 && total.path_violations == 0 && total.ops > 0;
  const double p99 = quantile(tail, 0.99);
  std::printf("window: %llu ops in %.3f s over %zu connections; p99 %.4f ms; %llu failed, "
              "%llu wrong, %llu path-assertion violations\n",
              static_cast<unsigned long long>(total.ops), wall, connections, p99,
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.wrong),
              static_cast<unsigned long long>(total.path_violations));
  if (!total.first_problem.empty()) std::printf("first problem: %s\n", total.first_problem.c_str());

  std::vector<Metric> e2e = {
      {"ops_per_s", quantile(slice_rate, 1 - kFastSide), "1/s"},
      {"latency_p50_ms", quantile(slice_p50, kFastSide), "ms"},
      {"server_cpu_ms_per_op", quantile(slice_cpu, kFastSide), "ms"},
      {"ok_rate", (ops - static_cast<double>(failed)) / ops, "ratio"},
      {"setup_s", setup_s[setup_s.size() / 2], "s"},
      {"server_rss_mb", rss, "MiB"},
      {"solution_size", w.reference_size(), "vertices"},
  };
  for (const Metric& m : e2e) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::vector<Metric> layer;
  if (opt.trace) {
    std::vector<std::size_t> per_conn;
    for (const std::vector<double>& d_s : done_s) per_conn.push_back(kWarmOps + d_s.size());
    const std::string spans = opt.trace_dir + "/" + w.name() + "-seed" +
                              std::to_string(opt.seed) + ".spans.jsonl";
    TraceReport rep = traced_replay(w, per_conn, quantile(slice_p50, kFastSide), 6.0, spans);
    std::printf("%s\nspans: %s\n", rep.table.c_str(), spans.c_str());
    if (rep.parity_mismatches) std::printf("parity problem: %s\n", rep.parity_problem.c_str());
    if (!rep.tally.first_problem.empty()) {
      std::printf("replay problem: %s\n", rep.tally.first_problem.c_str());
    }
    // Coverage is gated within core B's own execution; the ratio to core A's
    // handle_line time (bench.trace_coverage) also carries A-vs-B timing
    // noise, which on ~100 us ops is several percent.
    correct = correct && rep.parity_mismatches == 0 && rep.span_coverage >= 0.9 &&
              rep.tally.wrong == 0 && rep.tally.failed == 0 && rep.tally.path_violations == 0 &&
              rep.ops > 0;
    const double hits = static_cast<double>(total.diag.hits);
    const double lookups = hits + static_cast<double>(total.diag.misses);
    layer = std::move(rep.metrics);
    const std::vector<Metric> socket_side = {
        {"latency_p99_ms", p99, "ms"},
        {"api.cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
        {"api.cache.evictions_per_op", evictions / ops, "count"},
        {"api.executor.incremental_ratio",
         total.diag.graphs ? static_cast<double>(total.diag.incremental) /
                                 static_cast<double>(total.diag.graphs)
                           : 0,
         "ratio"},
        {"api.executor.dirty_per_op", static_cast<double>(total.diag.dirty) / ops, "count"},
        {"cluster.router.self_us", router.self_us, "us"},
        {"cluster.router.ingest_share", router.ingest_share, "ratio"},
        {"cluster.router.subbatches_per_op", router.subbatches, "count"},
        {"server.cpu_per_wall", server_cpu / wall, "ratio"},
        {"bench.client_cpu_ms_per_op", client_cpu * 1e3 / ops, "ms"},
    };
    layer.insert(layer.end(), socket_side.begin(), socket_side.end());
    for (const Metric& m : layer) {
      std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(total.ops) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : opt.trace ? layer : e2e) {
    if (!first) json += ',';
    first = false;
    json += "\"" + m.name + "\":{\"value\":" + number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--workload" && value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--server-bin" && value) {
      opt.server_bin = argv[++i];
    } else if (arg == "--trace-dir" && value) {
      opt.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const std::vector<std::unique_ptr<Workload>> workloads = make_workloads();
  if (opt.list) {
    for (const auto& w : workloads) std::printf("%-14s %s\n", w->name(), w->why());
    return 0;
  }
  if (opt.self_test) return self_test(opt.seed);
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const auto& w) { return opt.workload == w->name(); });
  if (it == workloads.end() || opt.seconds <= 0) return usage();
  if (opt.server_bin.empty()) {
    // Built side by side with this binary.
    opt.server_bin = (std::filesystem::read_symlink("/proc/self/exe").parent_path() / "lmds_serve").string();
  }

  const Watchdog watchdog(170);
  try {
    return run(opt, **it);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: %s\n", e.what());
    kill_all_servers();
    return 3;
  }
}
