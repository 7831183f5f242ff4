#pragma once
// Unified solver API types: every MDS / MVC algorithm in the library is
// described by a SolverSpec and invoked through one Request -> Response
// surface (see registry.hpp for the process-wide Registry).
//
// The point is the *comparison*: Table 1 of the paper lines up Algorithm 1,
// the 3-round Theorem 4.4 rule, folklore baselines and KSV-style rules, and
// every one of them answers in one shape, core::SolverOutput (a solution
// plus core::Diagnostics), from the algorithm to the wire. The same surface
// is the seam the serving, batching and caching layers build on: callers
// hold a Request, not a call site per algorithm.

#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "core/solver_output.hpp"
#include "graph/graph.hpp"

namespace lmds::api {

using core::Diagnostics;
using core::SolverOutput;
using graph::Graph;
using graph::Vertex;

/// Which covering problem a solver answers.
enum class Problem { Mds, Mvc };

/// How a solver executes. Centralized evaluates the rule on the whole graph;
/// Local runs the message-passing simulator and measures real traffic.
enum class Mode { Centralized, Local };

std::string_view to_string(Problem p);
std::string_view to_string(Mode m);

/// Thrown by Registry for malformed requests — unknown solver name, null
/// graph, an option the spec does not declare, or measure_traffic on a
/// solver without a Local mode. Distinct from algorithm failures, which
/// propagate the algorithm's own exception types, so callers (e.g. the CLI)
/// can map the two to different exit codes.
struct RequestError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// A typed solver parameter value: int, bool or double. Implicit construction
/// keeps `options["t"] = 5` working; the declared type lives in the ParamSpec
/// default, and Registry::resolve_options coerces request values to it
/// (int -> bool, int -> double) or throws RequestError on a real mismatch.
class ParamValue {
 public:
  enum class Type { Int, Bool, Double };

  ParamValue() = default;
  ParamValue(int v) : v_(v) {}     // NOLINT(google-explicit-constructor)
  ParamValue(bool v) : v_(v) {}    // NOLINT(google-explicit-constructor)
  ParamValue(double v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  ParamValue(const void*) = delete;  // otherwise a char* would select bool

  Type type() const { return static_cast<Type>(v_.index()); }

  /// Strict accessors: as_int demands an Int (so a double knob can never be
  /// silently truncated); as_bool additionally accepts an Int as 0/false,
  /// nonzero/true; as_double additionally promotes an Int. Violations throw
  /// std::invalid_argument.
  int as_int() const;
  bool as_bool() const;
  double as_double() const;

  /// "5", "true", "0.25" — used by generated usage text and cache keys.
  std::string to_string() const;

  friend bool operator==(const ParamValue&, const ParamValue&) = default;

 private:
  std::variant<int, bool, double> v_;  // index order must match Type
};

std::string_view to_string(ParamValue::Type t);

/// Parses the textual spelling of a parameter value against its declared
/// type — the one strict parser shared by mds_cli and the serve_client
/// driver. Rules: Double accepts any finite decimal ("0.25", "1e-3");
/// Bool accepts "true"/"false" (an integer spelling falls through to Int and
/// is coerced by the registry, 0 = false); Int accepts a decimal integer
/// that fits in int. Trailing garbage ("5x"), out-of-range values
/// ("99999999999" — no silent wraparound), empty strings, and non-finite
/// doubles ("inf", "nan") all return std::nullopt.
std::optional<ParamValue> parse_param_value(std::string_view text,
                                            ParamValue::Type declared);

/// One named typed parameter a solver accepts. The default's type *is* the
/// parameter's declared type.
struct ParamSpec {
  std::string name;
  ParamValue default_value = 0;
  std::string description;

  ParamValue::Type type() const { return default_value.type(); }
};

struct SolveContext;  // registry.hpp

/// Static description of a registered solver.
struct SolverSpec {
  std::string name;     ///< registry key, e.g. "algorithm1"
  Problem problem = Problem::Mds;
  std::vector<Mode> modes = {Mode::Centralized};  ///< supported execution modes
  std::string summary;  ///< one line for --help / docs
  std::vector<ParamSpec> params;
  /// LOCAL decomposability radius: if >= 0, a vertex's membership in the
  /// solution is a function of its radius-`locality_radius` ball alone (the
  /// subgraph it induces, vertex ids included). This is the license for the
  /// executor's incremental re-solve after an edge patch: only vertices
  /// whose ball touches an edited edge can change. -1 = not decomposable
  /// (global coordination, diagnostics or optimality), and patched graphs
  /// fall back to a full re-solve.
  int locality_radius = -1;
  /// Set iff locality_radius >= 0 (Registry::add enforces both ways):
  /// decide(ctx, targets) returns the ascending members of the sorted,
  /// distinct `targets` in the solver's answer on ctx.graph, reading only
  /// ball(targets, locality_radius), the same for any ctx.intra_threads.
  /// Called concurrently; keeps no state; runs on the calling thread. The
  /// executor's incremental re-solve calls it once, with the dirty vertices.
  std::vector<Vertex> (*decide)(const SolveContext& ctx, std::span<const Vertex> targets) =
      nullptr;

  bool supports(Mode m) const;
  /// Default of a declared parameter; throws std::invalid_argument if the
  /// spec does not declare `param`.
  ParamValue param_default(std::string_view param) const;
};

/// Named typed options; anything unset falls back to the SolverSpec
/// default. Transparent comparator so lookups take string_view. Sorted, so
/// iterating yields a canonical order (the response-cache key relies on it).
using Options = std::map<std::string, ParamValue, std::less<>>;

/// One solve request. The graph is borrowed, not owned — it must outlive the
/// run() call (batch entry points take spans of graphs instead).
struct Request {
  const Graph* graph = nullptr;
  Options options;
  /// Execute the LOCAL path through the message-passing simulator and fill
  /// Diagnostics::traffic with measured rounds/messages/bytes. Requesting
  /// this on a solver without a Local mode is an error.
  bool measure_traffic = false;
  /// Fill Response::ratio via core::measure_mds_ratio / measure_mvc_ratio
  /// (runs the exact solver or a lower bound — costs time on big graphs).
  bool measure_ratio = false;
};

/// One solve response. `solution` is sorted in input-graph indices; `valid`
/// is always checked against solve::is_dominating_set / is_vertex_cover.
struct Response {
  std::string solver;
  Problem problem = Problem::Mds;
  std::vector<Vertex> solution;
  bool valid = false;
  core::RatioReport ratio;      ///< meaningful iff ratio_measured
  bool ratio_measured = false;
  Diagnostics diag;

  /// Field-wise equality — the batch executor's determinism guarantee
  /// ("threads=8 equals threads=1" and "cache hit equals fresh run") is
  /// asserted with this operator in tests/test_batch.cpp.
  friend bool operator==(const Response&, const Response&) = default;
};

}  // namespace lmds::api
