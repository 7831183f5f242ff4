#include "api/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "solve/validate.hpp"

namespace lmds::api {

std::string_view to_string(Problem p) { return p == Problem::Mds ? "mds" : "mvc"; }

std::string_view to_string(Mode m) {
  return m == Mode::Centralized ? "centralized" : "local";
}

std::string_view to_string(ParamValue::Type t) {
  switch (t) {
    case ParamValue::Type::Int: return "int";
    case ParamValue::Type::Bool: return "bool";
    case ParamValue::Type::Double: return "double";
  }
  return "?";
}

int ParamValue::as_int() const {
  if (type() != Type::Int) {
    throw std::invalid_argument("ParamValue " + to_string() + " is not an int");
  }
  return std::get<int>(v_);
}

bool ParamValue::as_bool() const {
  if (type() == Type::Bool) return std::get<bool>(v_);
  if (type() == Type::Int) return std::get<int>(v_) != 0;
  throw std::invalid_argument("ParamValue " + to_string() + " is not a bool");
}

double ParamValue::as_double() const {
  if (type() == Type::Double) return std::get<double>(v_);
  if (type() == Type::Int) return std::get<int>(v_);
  throw std::invalid_argument("ParamValue " + to_string() + " is not a double");
}

std::string ParamValue::to_string() const {
  switch (type()) {
    case Type::Int: return std::to_string(std::get<int>(v_));
    case Type::Bool: return std::get<bool>(v_) ? "true" : "false";
    case Type::Double: {
      // %.17g round-trips every double, so distinct values never alias in
      // the canonical cache key.
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", std::get<double>(v_));
      return buf;
    }
  }
  return {};
}

std::optional<ParamValue> parse_param_value(std::string_view text,
                                            ParamValue::Type declared) {
  if (text.empty()) return std::nullopt;
  const char* first = text.data();
  const char* last = first + text.size();
  if (declared == ParamValue::Type::Double) {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || !std::isfinite(value)) return std::nullopt;
    return ParamValue(value);
  }
  if (declared == ParamValue::Type::Bool) {
    if (text == "true") return ParamValue(true);
    if (text == "false") return ParamValue(false);
    // Integer spellings ("0", "1") fall through; the registry coerces.
  }
  int value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  // ec is errc::result_out_of_range when the digits overflow int — rejected,
  // never wrapped.
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return ParamValue(value);
}

bool SolverSpec::supports(Mode m) const {
  return std::find(modes.begin(), modes.end(), m) != modes.end();
}

ParamValue SolverSpec::param_default(std::string_view param) const {
  for (const ParamSpec& p : params) {
    if (p.name == param) return p.default_value;
  }
  throw std::invalid_argument("solver '" + name + "' has no parameter '" +
                              std::string(param) + "'");
}

// The built-in registration hook lives in builtin_solvers.cpp; keeping it a
// plain function (not static-initializer magic) makes registration immune to
// static-library dead-stripping and init-order issues.
void register_builtin_solvers(Registry& reg);

Registry& Registry::instance() {
  static Registry* reg = [] {
    auto* r = new Registry();
    register_builtin_solvers(*r);
    return r;
  }();
  return *reg;
}

void Registry::add(SolverSpec spec, SolveFn fn) {
  if (spec.name.empty()) throw std::invalid_argument("solver name must be non-empty");
  if (!fn) throw std::invalid_argument("solver '" + spec.name + "' has no solve function");
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), spec.name,
      [](const Entry& e, const std::string& name) { return e.spec.name < name; });
  if (pos != entries_.end() && pos->spec.name == spec.name) {
    throw std::invalid_argument("solver '" + spec.name + "' is already registered");
  }
  entries_.insert(pos, Entry{std::move(spec), std::move(fn)});
}

const Registry::Entry* Registry::find_entry(std::string_view name) const {
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const Entry& e, std::string_view n) { return e.spec.name < n; });
  if (pos == entries_.end() || pos->spec.name != name) return nullptr;
  return &*pos;
}

const SolverSpec* Registry::find(std::string_view name) const {
  const Entry* e = find_entry(name);
  return e ? &e->spec : nullptr;
}

const SolverSpec& Registry::at(std::string_view name) const {
  const SolverSpec* spec = find(name);
  if (!spec) throw RequestError("unknown solver '" + std::string(name) + "'");
  return *spec;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.spec.name);
  return out;
}

std::vector<const SolverSpec*> Registry::specs() const {
  std::vector<const SolverSpec*> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(&e.spec);
  return out;
}

namespace {

// Coerces a request-supplied value to the declared type of `p`: exact type
// matches pass through, Int widens to Bool (0 = false) and Double. Anything
// else — a double for an int knob, say — is a RequestError, not a silent
// truncation.
ParamValue coerce(const SolverSpec& spec, const ParamSpec& p, const ParamValue& value) {
  if (value.type() == p.type()) return value;
  if (value.type() == ParamValue::Type::Int) {
    if (p.type() == ParamValue::Type::Bool) return value.as_int() != 0;
    if (p.type() == ParamValue::Type::Double) return value.as_double();
  }
  throw RequestError("solver '" + spec.name + "' parameter '" + p.name + "' is " +
                     std::string(to_string(p.type())) + ", got " +
                     std::string(to_string(value.type())) + " (" + value.to_string() + ")");
}

Options resolve_against(const SolverSpec& spec, const Request& req) {
  if (req.measure_traffic && !spec.supports(Mode::Local)) {
    throw RequestError("solver '" + spec.name +
                       "' has no Local mode; cannot measure traffic");
  }
  for (const auto& [key, value] : req.options) {
    (void)value;
    const bool declared = std::any_of(spec.params.begin(), spec.params.end(),
                                      [&](const ParamSpec& p) { return p.name == key; });
    if (!declared) {
      throw RequestError("solver '" + spec.name + "' has no parameter '" + key + "'");
    }
  }
  Options params;
  for (const ParamSpec& p : spec.params) {
    const auto it = req.options.find(p.name);
    params[p.name] = it != req.options.end() ? coerce(spec, p, it->second) : p.default_value;
  }
  return params;
}

}  // namespace

Options Registry::resolve_options(std::string_view name, const Request& req) const {
  const Entry* entry = find_entry(name);
  if (!entry) throw RequestError("unknown solver '" + std::string(name) + "'");
  return resolve_against(entry->spec, req);
}

Response Registry::run(std::string_view name, const Request& req) const {
  const Entry* entry = find_entry(name);
  if (!entry) throw RequestError("unknown solver '" + std::string(name) + "'");
  if (!req.graph) {
    throw RequestError("solver '" + entry->spec.name + "': request has no graph");
  }
  return run_entry(*entry, *req.graph, resolve_against(entry->spec, req),
                   req.measure_traffic, req.measure_ratio, 1);
}

Response Registry::run_resolved(std::string_view name, const Graph& g,
                                const Options& resolved, bool measure_traffic,
                                bool measure_ratio, int intra_threads) const {
  const Entry* entry = find_entry(name);
  if (!entry) throw RequestError("unknown solver '" + std::string(name) + "'");
  return run_entry(*entry, g, resolved, measure_traffic, measure_ratio, intra_threads);
}

Response Registry::run_entry(const Entry& entry, const Graph& g, const Options& params,
                             bool measure_traffic, bool measure_ratio,
                             int intra_threads) const {
  const SolverSpec& spec = entry.spec;
  const SolveContext ctx{g, params, measure_traffic, intra_threads};
  SolverOutput out = entry.solve(ctx);

  Response res;
  res.solver = spec.name;
  res.problem = spec.problem;
  res.solution = std::move(out.solution);
  std::sort(res.solution.begin(), res.solution.end());
  res.diag = std::move(out.diag);
  res.valid = spec.problem == Problem::Mds ? solve::is_dominating_set(g, res.solution)
                                           : solve::is_vertex_cover(g, res.solution);
  if (measure_ratio) {
    res.ratio = spec.problem == Problem::Mds ? core::measure_mds_ratio(g, res.solution)
                                             : core::measure_mvc_ratio(g, res.solution);
    res.ratio_measured = true;
  }
  return res;
}

std::vector<Response> Registry::run_batch(std::string_view name,
                                          std::span<const Graph> graphs,
                                          const Request& req) const {
  std::vector<Response> out;
  out.reserve(graphs.size());
  Request one = req;  // one copy of the options map, not one per graph
  for (const Graph& g : graphs) {
    one.graph = &g;
    out.push_back(run(name, one));
  }
  return out;
}

}  // namespace lmds::api
