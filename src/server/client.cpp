#include "server/client.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace lmds::server {

namespace {

int connect_or_throw(const std::string& host, int port, int timeout_ms) {
  const int fd = tcp_connect(host, port, timeout_ms);
  if (fd < 0) {
    throw std::runtime_error("cannot connect to " + host + ":" + std::to_string(port) +
                             ": " + errno_string(errno));
  }
  return fd;
}

}  // namespace

ProtocolClient::ProtocolClient(const std::string& host, int port, bool http, std::string ns,
                               ClientOptions options)
    : fd_(connect_or_throw(host, port, options.connect_timeout_ms)),
      reader_(fd_),
      http_(http),
      ns_(std::move(ns)) {
  if (options.io_timeout_ms > 0) set_io_timeout(fd_, options.io_timeout_ms);
}

ProtocolClient::~ProtocolClient() { close_fd(fd_); }

JsonValue ProtocolClient::exchange(const std::string& op, const std::string& members) {
  if (!http_) {
    std::string line = "{\"op\":\"" + op + "\"";
    if (!members.empty()) line += "," + members;
    line += "}";
    return exchange_line(line);
  }
  // HTTP: the verb moves into the route.
  if (op == "solve") return exchange_http("POST", "/v2/solve", "{" + members + "}");
  if (op == "solvers") return exchange_http("GET", "/v2/solvers", "");
  if (op == "stats") return exchange_http("GET", "/v2/stats", "");
  if (op == "shutdown") return exchange_http("POST", "/v2/shutdown", "");
  if (op == "replicate_in") return exchange_http("POST", "/v2/replicate", "{" + members + "}");
  if (op == "replicate_out") {
    // Pull mode (no members) fetches the payload; push mode carries a peer.
    if (members.empty()) return exchange_http("GET", "/v2/replicate", "");
    return exchange_http("POST", "/v2/replicate/push", "{" + members + "}");
  }
  throw std::runtime_error("op '" + op + "' has no HTTP route in this client");
}

JsonValue ProtocolClient::put_graph(const std::string& graph_json) {
  if (http_) return exchange_http("PUT", "/v2/graphs", graph_json);
  return exchange_line("{\"op\":\"put_graph\",\"graph\":" + graph_json + "}");
}

JsonValue ProtocolClient::drop_graph(const std::string& handle) {
  if (http_) return exchange_http("DELETE", "/v2/graphs/" + handle, "");
  return exchange_line("{\"op\":\"drop_graph\",\"handle\":\"" + handle + "\"}");
}

JsonValue ProtocolClient::patch_graph(const std::string& handle,
                                      const std::string& patch_members) {
  if (http_) {
    return exchange_http("POST", "/v2/graphs/" + handle + "/patch", "{" + patch_members + "}");
  }
  return exchange_line("{\"op\":\"patch_graph\",\"handle\":\"" + handle + "\"," +
                       patch_members + "}");
}

void ProtocolClient::open_session() {
  if (http_ || ns_.empty()) return;
  std::string line = "{\"op\":\"open_session\",\"namespace\":";
  json_append_string(line, ns_);
  line += "}";
  const JsonValue response = exchange_line(line);
  const JsonValue* ok = response.find("ok");
  if (!ok || !ok->as_bool()) throw std::runtime_error("open_session failed");
}

JsonValue ProtocolClient::exchange_line(const std::string& line) {
  if (!send_all(fd_, line + "\n")) {
    throw std::runtime_error("send failed (server closed the connection?)");
  }
  std::optional<std::string> response = reader_.next_line(64u << 20);
  if (!response) {
    if (reader_.timed_out()) throw std::runtime_error("read timed out waiting for the server");
    throw std::runtime_error("server closed the connection mid-exchange");
  }
  // The value outlives this function: it takes the line over.
  return json_parse(*std::move(response));
}

JsonValue ProtocolClient::exchange_http(const std::string& method, const std::string& target,
                                        const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: lmds\r\n";
  if (!ns_.empty()) request += "X-Lmds-Namespace: " + ns_ + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!send_all(fd_, request)) {
    throw std::runtime_error("send failed (server closed the connection?)");
  }
  // Status line, headers (only Content-Length matters to us), body.
  const auto status_line = reader_.next_line(1u << 16);
  if (!status_line) {
    if (reader_.timed_out()) throw std::runtime_error("read timed out waiting for the server");
    throw std::runtime_error("server closed the connection before responding");
  }
  if (!status_line->starts_with("HTTP/1.1 ")) {
    throw std::runtime_error("bad HTTP status line");
  }
  std::size_t content_length = 0;
  while (true) {
    const auto header = reader_.next_line(1u << 16);
    if (!header) throw std::runtime_error("connection closed inside HTTP headers");
    if (header->empty()) break;
    static constexpr std::string_view kPrefix = "content-length:";
    std::string lowered = *header;
    for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (lowered.starts_with(kPrefix)) {
      content_length = static_cast<std::size_t>(
          std::strtoull(header->c_str() + kPrefix.size(), nullptr, 10));
    }
  }
  std::optional<std::string> body_bytes = reader_.read_exact(content_length);
  if (!body_bytes) throw std::runtime_error("connection closed inside HTTP body");
  return json_parse(*std::move(body_bytes));  // takes the body over, as above
}

bool ProtocolClient::send_raw(const std::string& bytes) { return send_all(fd_, bytes); }

bool ProtocolClient::send_raw(std::span<const std::string_view> pieces) {
  return send_all(fd_, pieces);
}

std::optional<std::string> ProtocolClient::read_raw_line(std::size_t max_bytes) {
  return reader_.next_line(max_bytes);
}

void require_ok(const JsonValue& response, const std::string& what) {
  const JsonValue* ok = response.find("ok");
  if (ok && ok->as_bool()) return;
  const JsonValue* error = response.find("error");
  throw std::runtime_error(what + " failed: " +
                           (error ? error->as_string() : std::string("no error field")));
}

}  // namespace lmds::server
