#include "support/decode_reference.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "graph/builder.hpp"

namespace lmds::server {

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw ProtocolError(ErrorCode::BadRequest, what);
}

int int_field(const JsonValue& v, std::string_view what) {
  std::int64_t value = 0;
  try {
    value = v.as_int();
  } catch (const JsonError& e) {
    bad_request(std::string(what) + ": " + e.what());
  }
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    bad_request(std::string(what) + ": " + std::to_string(value) + " out of int range");
  }
  return static_cast<int>(value);
}

}  // namespace

graph::Graph decode_graph_reference(const JsonValue& v, const ServerLimits& limits) {
  if (v.type() != JsonValue::Type::Object) bad_request("graph must be an object");
  const JsonValue* edges = v.find("edges");
  if (!edges) bad_request("graph has no \"edges\" array");
  if (edges->type() != JsonValue::Type::Array) bad_request("\"edges\" must be an array");

  int declared_n = -1;
  if (const JsonValue* n = v.find("n")) {
    declared_n = int_field(*n, "graph \"n\"");
    if (declared_n < 0) bad_request("graph \"n\" must be >= 0");
    if (declared_n > limits.max_graph_vertices) {
      bad_request("graph too large: n=" + std::to_string(declared_n) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
  }

  graph::GraphBuilder builder(declared_n >= 0 ? declared_n : 0);
  for (const JsonValue& e : edges->as_array()) {
    if (e.type() != JsonValue::Type::Array || e.as_array().size() != 2) {
      bad_request("each edge must be a [u, v] pair");
    }
    const int u = int_field(e.as_array()[0], "edge endpoint");
    const int w = int_field(e.as_array()[1], "edge endpoint");
    if (u < 0 || w < 0) bad_request("edge endpoints must be >= 0");
    const int hi = std::max(u, w);
    if (declared_n >= 0 && hi >= declared_n) {
      bad_request("edge endpoint " + std::to_string(hi) + " outside [0, n=" +
                  std::to_string(declared_n) + ")");
    }
    if (hi >= limits.max_graph_vertices) {
      bad_request("graph too large: endpoint " + std::to_string(hi) + " exceeds limit " +
                  std::to_string(limits.max_graph_vertices));
    }
    if (u == w) bad_request("self-loop at vertex " + std::to_string(u));
    builder.add_edge(u, w);
  }
  return builder.build();
}

}  // namespace lmds::server
