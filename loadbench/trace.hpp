#pragma once
// The traced run: the workload's op stream replayed in-process against two
// ServerCores configured like the served one. Core A answers every request
// through Session::handle_line (the untraced reference); core B answers it
// through the public calls Session makes, in the same order, each inside a
// span (json_parse -> decode_* -> GraphStore / graph_hash ->
// BatchExecutor::run_batch -> encode_*). The two answers must be byte-equal
// (parity), and B's layer spans must cover A's handle_line time. Spans stay
// in memory and are written out when the replay ends.

#include <string>
#include <vector>

#include "workloads.hpp"

namespace loadbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TraceReport {
  std::vector<Metric> metrics;
  std::uint64_t ops = 0;
  std::uint64_t parity_mismatches = 0;
  std::string parity_problem;
  double coverage = 0;       ///< layer spans / handle_line time (A vs B)
  double span_coverage = 0;  ///< layer spans / their request spans (B alone)
  Tally tally;        ///< the replay's own answer checks
  std::string table;  ///< the human-readable layer table
};

/// Replays op k of every connection, round robin, for k below that
/// connection's socket-run op count, until `budget_s` elapses.
/// `socket_p50_ms` (the socket run's p50 round trip) heads the layer table.
TraceReport traced_replay(Workload& w, const std::vector<std::size_t>& socket_ops,
                          double socket_p50_ms, double budget_s, const std::string& spans_path);

struct RouterReport {
  double self_us = 0;       ///< routed round trip - slowest direct sub-batch round trip
  double ingest_share = 0;  ///< router-side parse+decode+hash+re-dump / routed round trip
  double subbatches = 0;    ///< sub-batches per op
};

/// Measures the router layer of a routed workload against the live router
/// and its workers: op k of connection 0 for k < ops.
RouterReport measure_router(const Workload& w, int router_port,
                            const std::vector<int>& worker_ports, int ops);

}  // namespace loadbench
