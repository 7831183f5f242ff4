#pragma once
// The process-wide solver registry: name -> (SolverSpec, adapter). All of
// the library's algorithms self-register on first access of
// Registry::instance(), so enumerating `specs()` is guaranteed to see every
// solver the CLI, benches and tests can reach — the lists can never drift.
//
//   const auto& reg = api::Registry::instance();
//   api::Request req;
//   req.graph = &g;
//   req.options["t"] = 5;
//   api::Response res = reg.run("algorithm1", req);
//
// run_batch() executes one request shape across many graphs, sequentially and
// uncached — the reference the parallel BatchExecutor (executor.hpp) is
// tested against. Sharded, cached batches go through a BatchExecutor.

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"

namespace lmds::api {

/// Everything an adapter sees: the graph, fully-resolved parameters (every
/// declared ParamSpec present — defaults merged in), and whether to take the
/// LOCAL simulator path.
struct SolveContext {
  const Graph& graph;
  const Options& params;
  bool local = false;
  /// Worker count for sharding THIS solve's per-vertex work (view gathers,
  /// per-ball decisions). 1 = sequential; <= 0 picks hardware_concurrency.
  /// Outputs are bit-identical for every value (slot-per-vertex merge), so
  /// this never enters any cache key.
  int intra_threads = 1;
};

/// What an adapter produces; the registry fills in the rest of Response
/// (solver name, problem, validity, optional ratio).
struct SolverOutput {
  std::vector<Vertex> solution;
  Diagnostics diag;
};

/// Adapter from the uniform surface to one concrete algorithm.
using SolveFn = std::function<SolverOutput(const SolveContext&)>;

class Registry {
 public:
  /// The process-wide registry with every built-in solver registered.
  static Registry& instance();

  /// Registers a solver. Throws std::invalid_argument on an empty or
  /// duplicate name.
  void add(SolverSpec spec, SolveFn fn);

  /// Spec lookup; nullptr when `name` is not registered.
  const SolverSpec* find(std::string_view name) const;

  /// Spec lookup; throws std::invalid_argument when `name` is unknown.
  const SolverSpec& at(std::string_view name) const;

  /// Registered solver names, sorted.
  std::vector<std::string> names() const;

  /// All specs, sorted by name.
  std::vector<const SolverSpec*> specs() const;

  /// Runs one request. Throws std::invalid_argument for an unknown solver,
  /// a null graph, an option the spec does not declare, or measure_traffic
  /// on a solver without a Local mode. Solution is sorted; validity is
  /// always checked; ratio measured iff requested.
  Response run(std::string_view name, const Request& req) const;

  /// Hot-path variant for batch execution: `resolved` must be a map
  /// resolve_options() returned for this solver (every declared parameter
  /// present with its declared type) — it is trusted, not re-validated, so
  /// per-graph cost is one name lookup plus the solve itself.
  /// `intra_threads` shards the single solve's per-vertex work (see
  /// SolveContext::intra_threads); the response is bit-identical for every
  /// value.
  Response run_resolved(std::string_view name, const Graph& g, const Options& resolved,
                        bool measure_traffic, bool measure_ratio,
                        int intra_threads = 1) const;

  /// Validates `req` against `name`'s spec and returns the fully-resolved
  /// parameter map: every declared parameter present (request value or spec
  /// default) and coerced to its declared type — Int is accepted for a Bool
  /// parameter (0 = false) and promoted for a Double one; any other mismatch
  /// throws. Throws RequestError exactly where run() would: unknown solver,
  /// undeclared option, type mismatch, measure_traffic without a Local mode.
  Options resolve_options(std::string_view name, const Request& req) const;

  /// Runs the same request shape across many graphs (req.graph is ignored);
  /// response i answers graphs[i]. Sequential and uncached — byte-for-byte
  /// the behaviour of calling run() in a loop.
  std::vector<Response> run_batch(std::string_view name, std::span<const Graph> graphs,
                                  const Request& req) const;

 private:
  struct Entry {
    SolverSpec spec;
    SolveFn solve;
  };
  std::vector<Entry> entries_;  // sorted by spec.name

  const Entry* find_entry(std::string_view name) const;
  Response run_entry(const Entry& entry, const Graph& g, const Options& params,
                     bool measure_traffic, bool measure_ratio, int intra_threads) const;
};

}  // namespace lmds::api
