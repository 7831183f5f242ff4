#include "support/encode_reference.hpp"

#include <vector>

#include "server/json.hpp"

namespace lmds::server {

namespace {

void append_vertices(std::string& out, const std::vector<api::Vertex>& vs) {
  out += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(vs[i]);
  }
  out += ']';
}

}  // namespace

void encode_response_element_reference(std::string& out, const api::Response& r) {
  out += "{\"solver\":";
  json_append_string(out, r.solver);
  out += ",\"problem\":";
  json_append_string(out, to_string(r.problem));
  out += ",\"solution\":";
  append_vertices(out, r.solution);
  out += ",\"valid\":";
  out += r.valid ? "true" : "false";
  out += ",\"rounds\":";
  out += std::to_string(r.diag.rounds);
  if (r.diag.traffic_measured) {
    out += ",\"traffic\":{\"rounds\":" + std::to_string(r.diag.traffic.rounds) +
           ",\"messages\":" + std::to_string(r.diag.traffic.messages) +
           ",\"bytes\":" + std::to_string(r.diag.traffic.bytes) + '}';
  }
  if (r.ratio_measured) {
    out += ",\"ratio\":{\"solution_size\":" + std::to_string(r.ratio.solution_size) +
           ",\"reference\":" + std::to_string(r.ratio.reference) + ",\"exact\":";
    out += r.ratio.exact ? "true" : "false";
    out += ",\"ratio\":";
    json_append_double(out, r.ratio.ratio);
    out += '}';
  }
  out += '}';
}

}  // namespace lmds::server
