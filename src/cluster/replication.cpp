#include "cluster/replication.hpp"

#include <array>
#include <sstream>

namespace lmds::cluster {

namespace {

constexpr std::string_view kAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

constexpr std::array<signed char, 256> build_reverse() {
  std::array<signed char, 256> rev{};
  for (auto& v : rev) v = -1;
  for (int i = 0; i < 64; ++i) {
    rev[static_cast<unsigned char>(kAlphabet[static_cast<std::size_t>(i)])] =
        static_cast<signed char>(i);
  }
  return rev;
}

constexpr std::array<signed char, 256> kReverse = build_reverse();

}  // namespace

std::string base64_encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= bytes.size()) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                       static_cast<unsigned char>(bytes[i + 2]);
    out += kAlphabet[(v >> 18) & 63];
    out += kAlphabet[(v >> 12) & 63];
    out += kAlphabet[(v >> 6) & 63];
    out += kAlphabet[v & 63];
    i += 3;
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const unsigned v = static_cast<unsigned char>(bytes[i]) << 16;
    out += kAlphabet[(v >> 18) & 63];
    out += kAlphabet[(v >> 12) & 63];
    out += "==";
  } else if (rest == 2) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8);
    out += kAlphabet[(v >> 18) & 63];
    out += kAlphabet[(v >> 12) & 63];
    out += kAlphabet[(v >> 6) & 63];
    out += '=';
  }
  return out;
}

std::optional<std::string> base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) return std::nullopt;
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    int pad = 0;
    unsigned v = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        // Padding is only legal in the last two positions of the last group.
        if (i + 4 != text.size() || j < 2) return std::nullopt;
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad > 0) return std::nullopt;  // data after '='
      const signed char d = kReverse[static_cast<unsigned char>(c)];
      if (d < 0) return std::nullopt;
      v = (v << 6) | static_cast<unsigned>(d);
    }
    out += static_cast<char>((v >> 16) & 0xFF);
    if (pad < 2) out += static_cast<char>((v >> 8) & 0xFF);
    if (pad < 1) out += static_cast<char>(v & 0xFF);
  }
  return out;
}

std::string encode_replication_members(const api::GraphStore& store,
                                       const api::ResponseCache& cache) {
  const auto graphs = store.snapshot_graphs();
  std::string out = "\"graphs\":[";
  bool first = true;
  for (const auto& [handle, graph] : graphs) {
    if (!first) out += ',';
    first = false;
    out += server::encode_graph_json(*graph);
  }
  out += "],\"cache\":\"";
  if (cache.enabled()) {
    std::ostringstream snapshot;
    cache.serialize(snapshot);
    out += base64_encode(snapshot.str());  // base64 needs no JSON escaping
  }
  out += "\",\"graph_count\":" + std::to_string(graphs.size());
  return out;
}

ReplicationResult apply_replication(const server::JsonValue& root,
                                    api::GraphStore& store, api::ResponseCache& cache,
                                    const server::ServerLimits& limits) {
  ReplicationResult result;
  if (const server::JsonValue* graphs = root.find("graphs")) {
    if (graphs->type() != server::JsonValue::Type::Array) {
      throw server::ProtocolError(server::ErrorCode::BadRequest,
                                  "replicate \"graphs\" must be an array");
    }
    for (const server::JsonValue& g : graphs->as_array()) {
      server::DecodedGraph decoded = server::decode_graph_hashed(g, limits);  // throws BadRequest
      try {
        if (store.put_replica(std::move(decoded.graph), decoded.hash).inserted) {
          ++result.installed;
        } else {
          ++result.present;
        }
      } catch (const api::GraphStoreFull&) {
        // Best-effort: the receiver is full (or quota'd); skip, keep going —
        // replication must never wedge a healthy peer.
        ++result.rejected;
      } catch (const api::HashCollision&) {
        // The receiver's entry under this handle is a different graph and
        // stays; the peer's graph is skipped like a full store's.
        ++result.rejected;
      }
    }
  }
  if (const server::JsonValue* encoded = root.find("cache")) {
    if (encoded->type() != server::JsonValue::Type::String) {
      throw server::ProtocolError(server::ErrorCode::BadRequest,
                                  "replicate \"cache\" must be a base64 string");
    }
    if (!encoded->as_string().empty()) {
      const auto bytes = base64_decode(encoded->as_string());
      if (!bytes) {
        throw server::ProtocolError(server::ErrorCode::BadRequest,
                                    "replicate \"cache\" is not valid base64");
      }
      std::istringstream snapshot(*bytes);
      try {
        cache.merge(snapshot);
      } catch (const std::exception& e) {
        throw server::ProtocolError(server::ErrorCode::BadRequest,
                                    std::string("replicate cache snapshot: ") + e.what());
      }
      result.cache_merged = true;
    }
  }
  return result;
}

}  // namespace lmds::cluster
