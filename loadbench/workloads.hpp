#pragma once
// The load benchmark's workloads: seeded, certified K_{2,t}-minor-free inputs,
// the deterministic op stream each connection replays, the from-scratch
// reference answers, and the answer checker. One op stream serves two
// runs: the socket run that gives the end-to-end metrics (a Transport over
// a real lmds_serve connection) and the traced in-process replay (a Transport
// over Session objects, trace.hpp). README.md in this directory says why each
// workload exists.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "server/net.hpp"

namespace loadbench {

/// One client connection: a request line (line-protocol form, always
/// starting {"op":"<verb>",...) in, the raw response body out.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string exchange(const std::string& line) = 0;
};

/// A socket connection to lmds_serve over the line protocol or HTTP/1.1
/// keep-alive (solve requests only; the body is the line minus its "op").
class SocketTransport final : public Transport {
 public:
  SocketTransport(int port, bool http);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;
  std::string exchange(const std::string& line) override;

 private:
  int fd_;
  bool http_;
  lmds::server::LineReader reader_;
};

/// Diagnostics of one solve response (the "diag" member).
struct Diag {
  std::uint64_t graphs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t incremental = 0;
  std::uint64_t dirty = 0;
};

/// Per-connection accumulator of one run; merged after the threads join.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< error lines (incl. server_busy) and dead connections
  std::uint64_t wrong = 0;   ///< invalid or reference-mismatching answers
  std::uint64_t path_violations = 0;
  Diag diag;
  std::uint64_t first_k = 0;               ///< op number of the first recorded op
  std::vector<double> latency_ms;          ///< one per op, from op first_k on
  std::vector<std::uint64_t> answer_hash;  ///< patch_stream: answer bytes per op
  std::string first_problem;

  void problem(std::uint64_t& counter, const std::string& what);
  void merge(const Tally& other);
};

/// What a solve slot must answer: the reference element bytes (nullptr =
/// checked elsewhere) and the graph + problem to validate the answer on.
struct Expect {
  const std::string* element = nullptr;
  const lmds::graph::Graph* graph = nullptr;
  bool mvc = false;
};

/// Checks one solve response against `expect` (one entry per slot): success
/// line, element bytes equal to the reference, answer valid on its graph.
/// Adds the diag to `tally`, fills `elements` with views into `response`.
/// Returns false (and counts the op failed or wrong) on any mismatch.
bool check_solve(std::string_view response, std::span<const Expect> expect, Tally& tally,
                 Diag& diag, std::vector<std::string_view>& elements);

/// The "solution" array of one encoded response element.
std::vector<lmds::graph::Vertex> parse_solution(std::string_view element);

/// Linear-interpolated quantile of an ascending vector (0 when empty).
double quantile(const std::vector<double>& sorted, double q);
double median(std::vector<double> v);

/// 64-bit FNV-1a, the op-stream digest.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL);

/// Fixed worker addresses of the routed topology. The router places graphs
/// by hashing these peer strings, so fixed addresses give every run the same
/// ring (the ports lie below the kernel's ephemeral range; a run whose ports
/// are taken falls back to ephemeral ones and a different ring).
inline constexpr int kWorkerPorts[] = {29411, 29412};
std::vector<std::string> worker_peers();

/// How the servers of a workload are laid out and reached.
struct Topology {
  bool routed = false;             ///< router + 2 workers instead of one server
  std::vector<std::string> flags;  ///< extra lmds_serve flags (every process)
  std::vector<bool> http;          ///< one entry per client connection
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual const char* why() const = 0;
  virtual Topology topology() const = 0;

  /// Builds the seeded inputs and the from-scratch Registry::run references
  /// (in-process, excluded from setup_s).
  virtual void generate(std::uint64_t seed) = 0;

  /// Request line of op k on connection c (for patch_stream: the op's first
  /// request; later ones depend on the server's answer).
  virtual std::string op_line(int conn, std::uint64_t k) const = 0;

  /// Puts and cache warm-up over live connections; every warm-up answer is
  /// checked against its reference.
  virtual void setup(std::span<Transport* const> conns) = 0;

  /// Runs and checks op k of connection c.
  virtual void run_op(Transport& t, int conn, std::uint64_t k, Tally& tally) const = 0;

  /// Checks after the timed window (patch_stream re-derives a sample of the
  /// answers from scratch). Default: nothing.
  virtual void post_check(std::span<const Tally> tallies, Tally& out) const;

  /// Digest of the first ops of every connection's stream.
  std::uint64_t stream_digest() const;

  /// Total answer size over the workload's seed-determined reference set of
  /// (graph, solver) pairs (set by generate). Served answers are checked
  /// byte-equal to these references, so a change that alters answers moves
  /// this number.
  double reference_size() const { return reference_size_; }

  /// Self-test: every input family passes minor::is_k2t_minor_free at its
  /// certificate on small instances. Returns an empty string or a failure.
  static std::string check_certificates(std::uint64_t seed);

 protected:
  double reference_size_ = 0;
};

/// The workload table, in BENCHMARK.json order.
std::vector<std::unique_ptr<Workload>> make_workloads();

}  // namespace loadbench
