#pragma once
// The soak run's single JSON artifact: configurations ranked by the BAI
// sampler, per-config approximation-ratio histograms, every oracle violation
// with its replay command, fuzz coverage counters, and the server's executor
// health snapshot. One report = one CI artifact.
//
// Determinism contract: for a fixed (--seed, --duration, transport flags)
// the emitted JSON is byte-identical across runs — the acceptance gate diffs
// two runs. Everything wall-clock lives behind `wall_seconds >= 0`, which
// the harness only fills under --timing; maps are std::map (sorted
// iteration); doubles go through json_append_double (shortest round-trip,
// locale-free).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lmds::soak {

/// Fixed-bucket histogram of measured approximation ratios.
struct RatioHistogram {
  /// Upper edges; the last bucket is "> 5". A ratio lands in the first
  /// bucket whose edge it does not exceed.
  static constexpr double kEdges[] = {1.0, 1.25, 1.5, 2.0, 3.0, 5.0};
  static constexpr int kBuckets = 7;

  std::uint64_t counts[kBuckets] = {};
  std::uint64_t samples = 0;
  double max_ratio = 0.0;

  void add(double ratio);
  void append_json(std::string& out) const;
};

/// One solver/parameter configuration's ranked result.
struct ConfigResult {
  std::string name;             ///< arm label, e.g. "algorithm1-paper"
  std::string solver;           ///< registry solver name
  std::string options_members;  ///< the request's options object, e.g. {"t":5}
  std::uint64_t pulls = 0;      ///< batches the sampler gave this arm
  double mean_reward = 0.0;
  double reward_variance = 0.0;
  std::uint64_t graphs = 0;     ///< graphs solved under this config
  std::uint64_t violations = 0;
  RatioHistogram ratios;
};

/// One oracle violation or fuzz-stage failure, replayable from the report.
struct ViolationRecord {
  std::string config;   ///< arm label ("fuzz" for fuzz-stage failures)
  std::string family;
  std::uint64_t index = 0;  ///< workload case index
  std::uint64_t seed = 0;   ///< generator seed (workload.hpp mix_seed)
  std::string reason;
  std::string repro_path;  ///< file under --repro-dir ("" if dump failed)
  std::string replay;      ///< one-line mds_cli / serve_client command
};

/// Per-mutation-kind fuzz outcome counters. The three outcome classes are
/// exhaustive: the server answered an error line, answered an ok line (the
/// mutation accidentally stayed well-formed), or closed the connection.
/// Anything else would be a crash/wedge — recorded as a failure, not a
/// counter.
struct FuzzKindCounters {
  std::uint64_t attempts = 0;
  std::uint64_t error_responses = 0;
  std::uint64_t ok_responses = 0;
  std::uint64_t closed_connections = 0;
};

struct FuzzSummary {
  std::map<std::string, FuzzKindCounters> kinds;  ///< by mutation-kind name
  std::uint64_t liveness_probes = 0;  ///< post-close reconnect + stats pings
  std::uint64_t failures = 0;         ///< crashes/wedges (details in violations)
};

/// Executor health + server counters scraped from the final stats probe.
struct ExecutorSnapshot {
  std::uint64_t batches_started = 0;
  std::uint64_t shards_executed = 0;
  std::uint64_t solves_served = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t requests = 0;
  std::uint64_t graphs_solved = 0;
};

struct SoakReport {
  std::uint64_t seed = 0;
  int duration = 0;
  std::string sampling_rule;
  std::uint64_t decided_after = 0;  ///< rewards until BAI confidence (0 = never)
  std::string best_config;          ///< name of the winning arm
  std::vector<ConfigResult> configs;  ///< ranked, best first
  std::vector<ViolationRecord> violations;
  FuzzSummary fuzz;
  ExecutorSnapshot executor;
  double wall_seconds = -1.0;  ///< < 0 = omitted (the deterministic default)

  std::uint64_t total_violations() const { return violations.size(); }
  std::string to_json() const;
};

}  // namespace lmds::soak
