#include "soak/report.hpp"

#include <algorithm>

#include "server/json.hpp"

namespace lmds::soak {

using server::json_append_double;
using server::json_append_string;

void RatioHistogram::add(double ratio) {
  ++samples;
  max_ratio = std::max(max_ratio, ratio);
  for (int b = 0; b < kBuckets - 1; ++b) {
    if (ratio <= kEdges[b] + 1e-12) {
      ++counts[b];
      return;
    }
  }
  ++counts[kBuckets - 1];
}

void RatioHistogram::append_json(std::string& out) const {
  out += "{\"edges\":[";
  for (int b = 0; b < kBuckets - 1; ++b) {
    if (b) out += ',';
    json_append_double(out, kEdges[b]);
  }
  out += "],\"counts\":[";
  for (int b = 0; b < kBuckets; ++b) {
    if (b) out += ',';
    out += std::to_string(counts[b]);
  }
  out += "],\"samples\":" + std::to_string(samples) + ",\"max\":";
  json_append_double(out, max_ratio);
  out += '}';
}

std::string SoakReport::to_json() const {
  std::string out = "{\"soak\":{\"seed\":" + std::to_string(seed) +
                    ",\"duration\":" + std::to_string(duration);
  if (wall_seconds >= 0.0) {
    out += ",\"wall_seconds\":";
    json_append_double(out, wall_seconds);
  }
  out += "},\"bai\":{\"rule\":";
  json_append_string(out, sampling_rule);
  out += ",\"decided_after\":" + std::to_string(decided_after) + ",\"best\":";
  json_append_string(out, best_config);
  out += "},\"configs\":[";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& c = configs[i];
    if (i) out += ',';
    out += "{\"name\":";
    json_append_string(out, c.name);
    out += ",\"solver\":";
    json_append_string(out, c.solver);
    out += ",\"options\":" + (c.options_members.empty() ? "{}" : c.options_members);
    out += ",\"pulls\":" + std::to_string(c.pulls) + ",\"mean_reward\":";
    json_append_double(out, c.mean_reward);
    out += ",\"reward_variance\":";
    json_append_double(out, c.reward_variance);
    out += ",\"graphs\":" + std::to_string(c.graphs) +
           ",\"violations\":" + std::to_string(c.violations) + ",\"ratios\":";
    c.ratios.append_json(out);
    out += '}';
  }
  out += "],\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const ViolationRecord& v = violations[i];
    if (i) out += ',';
    out += "{\"config\":";
    json_append_string(out, v.config);
    out += ",\"family\":";
    json_append_string(out, v.family);
    out += ",\"index\":" + std::to_string(v.index) + ",\"seed\":" + std::to_string(v.seed) +
           ",\"reason\":";
    json_append_string(out, v.reason);
    out += ",\"repro\":";
    json_append_string(out, v.repro_path);
    out += ",\"replay\":";
    json_append_string(out, v.replay);
    out += '}';
  }
  out += "],\"fuzz\":{\"kinds\":{";
  bool first = true;
  for (const auto& [kind, k] : fuzz.kinds) {
    if (!first) out += ',';
    first = false;
    json_append_string(out, kind);
    out += ":{\"attempts\":" + std::to_string(k.attempts) +
           ",\"error_responses\":" + std::to_string(k.error_responses) +
           ",\"ok_responses\":" + std::to_string(k.ok_responses) +
           ",\"closed_connections\":" + std::to_string(k.closed_connections) + "}";
  }
  out += "},\"liveness_probes\":" + std::to_string(fuzz.liveness_probes) +
         ",\"failures\":" + std::to_string(fuzz.failures) + "}";
  out += ",\"executor\":{\"batches_started\":" + std::to_string(executor.batches_started) +
         ",\"shards_executed\":" + std::to_string(executor.shards_executed) +
         ",\"solves_served\":" + std::to_string(executor.solves_served) +
         ",\"cache_hits\":" + std::to_string(executor.cache_hits) +
         ",\"cache_misses\":" + std::to_string(executor.cache_misses) +
         ",\"requests\":" + std::to_string(executor.requests) +
         ",\"graphs_solved\":" + std::to_string(executor.graphs_solved) + "}";
  out += ",\"oracle_violations\":" + std::to_string(total_violations()) + "}";
  return out;
}

}  // namespace lmds::soak
