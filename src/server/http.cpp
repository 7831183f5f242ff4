#include "server/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "server/json.hpp"

namespace lmds::server {

namespace {

// HTTP header names are case-insensitive; values keep their case.
bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::string_view reason_of(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Status";
}

std::string make_response(int status, std::string_view body, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += reason_of(status);
  out += "\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

/// Maps a protocol response body onto an HTTP status by its bytes: success
/// bodies start with {"ok":true, error bodies with their code. A newly
/// stored graph (stored_graph_of) is a created resource.
int status_of(std::string_view body) {
  if (body.starts_with("{\"ok\":true")) {
    const std::optional<api::GraphStore::PatchResult> stored = stored_graph_of(body);
    return stored && stored->put.inserted ? 201 : 200;
  }
  const std::optional<ErrorCode> code = error_code_of(body);
  if (code == ErrorCode::BadRequest) return 400;
  if (code == ErrorCode::UnknownSolver || code == ErrorCode::UnknownHandle) return 404;
  if (code == ErrorCode::ServerBusy) return 503;
  return 500;  // solver_failure, io_error
}

}  // namespace

std::optional<HttpRequest> read_http_request(LineReader& reader, int fd,
                                             const ServerLimits& limits) {
  // Request line. A line-length limit bounds header memory the same way the
  // line protocol bounds its request lines.
  std::optional<std::string> start = reader.next_line(limits.max_line_bytes);
  if (!start) {
    if (reader.oversized()) throw HttpError(400, "request line too long");
    return std::nullopt;  // clean EOF between requests
  }
  HttpRequest req;
  {
    const std::string& line = *start;
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                     : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos || !line.substr(sp2 + 1).starts_with("HTTP/1.")) {
      throw HttpError(400, "malformed request line: " + line);
    }
    req.method = line.substr(0, sp1);
    req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = req.target.find('?');
    if (query != std::string::npos) req.target.resize(query);
    // HTTP/1.0 defaults to close; 1.1 to keep-alive.
    req.keep_alive = !line.substr(sp2 + 1).starts_with("HTTP/1.0");
  }

  std::size_t content_length = 0;
  bool expects_continue = false;
  for (int count = 0;; ++count) {
    if (count > 100) throw HttpError(400, "too many headers");
    std::optional<std::string> line = reader.next_line(limits.max_line_bytes);
    if (!line) {
      if (reader.oversized()) throw HttpError(400, "header line too long");
      throw HttpError(400, "connection closed inside headers");
    }
    if (line->empty()) break;  // end of headers
    const std::size_t colon = line->find(':');
    if (colon == std::string::npos) throw HttpError(400, "malformed header: " + *line);
    const std::string_view name = trim(std::string_view(*line).substr(0, colon));
    const std::string_view value = trim(std::string_view(*line).substr(colon + 1));
    if (iequals(name, "content-length")) {
      std::size_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc() || ptr != value.data() + value.size()) {
        throw HttpError(400, "bad Content-Length");
      }
      if (parsed > limits.max_line_bytes) {
        throw HttpError(413, "request body exceeds " + std::to_string(limits.max_line_bytes) +
                                 " bytes");
      }
      content_length = parsed;
    } else if (iequals(name, "connection")) {
      if (iequals(value, "close")) req.keep_alive = false;
      if (iequals(value, "keep-alive")) req.keep_alive = true;
    } else if (iequals(name, "transfer-encoding")) {
      // Chunked bodies would need a second framing layer; clients of this
      // API always know their body size.
      throw HttpError(400, "Transfer-Encoding is not supported; send Content-Length");
    } else if (iequals(name, "expect")) {
      if (iequals(value, "100-continue")) expects_continue = true;
    } else if (iequals(name, "x-lmds-namespace")) {
      req.ns = std::string(value);
    }
  }

  if (content_length > 0) {
    // curl sends Expect: 100-continue for bodies over ~1KB and stalls ~1s
    // waiting for this interim line before transmitting the body.
    if (expects_continue) (void)send_all(fd, "HTTP/1.1 100 Continue\r\n\r\n");
    std::optional<std::string> body = reader.read_exact(content_length);
    if (!body) throw HttpError(400, "connection closed inside request body");
    req.body = *std::move(body);
  }
  return req;
}

std::string handle_http_request(const HttpRequest& req, Session& session) {
  // `parse` is json_parse_graph for a body that is itself a graph.
  const auto parse_body = [&](bool required,
                              JsonValue (*parse)(std::string_view) = json_parse) -> JsonValue {
    if (req.body.empty()) {
      if (required) {
        throw ProtocolError(ErrorCode::BadRequest, "this route requires a JSON body");
      }
      return JsonValue(JsonValue::Object{});
    }
    try {
      return parse(req.body);
    } catch (const JsonError& e) {
      throw ProtocolError(ErrorCode::BadRequest, std::string("invalid JSON body: ") + e.what());
    }
  };

  std::string body;
  try {
    // The header namespace is this request's open_session equivalent; a
    // "namespace" field inside a solve body still wins (decode_solve).
    session.set_ns(decode_namespace(JsonValue(req.ns)));
    if (req.target == "/v2/solve" && req.method == "POST") {
      body = session.dispatch("solve", parse_body(true));
    } else if (req.target == "/v2/graphs" && req.method == "PUT") {
      // The body IS the graph; wrap it the way the line protocol nests it.
      JsonValue::Object root;
      root.emplace("graph", parse_body(true, json_parse_graph));
      body = session.dispatch("put_graph", JsonValue(std::move(root)));
    } else if (req.target.starts_with("/v2/graphs/") && req.target.ends_with("/patch") &&
               req.method == "POST") {
      // POST /v2/graphs/<handle>/patch — the handle rides in the route (like
      // DELETE), the body is the {"add":..,"del":..,"n":..} edit batch.
      constexpr std::size_t kPrefix = sizeof("/v2/graphs/") - 1;
      constexpr std::size_t kSuffix = sizeof("/patch") - 1;
      std::string handle = req.target.substr(kPrefix, req.target.size() - kPrefix - kSuffix);
      JsonValue body_value = parse_body(true);
      if (body_value.type() != JsonValue::Type::Object) {
        throw ProtocolError(ErrorCode::BadRequest, "patch body must be a JSON object");
      }
      JsonValue::Object root = body_value.as_object();
      root.insert_or_assign("handle", JsonValue(std::move(handle)));
      body = session.dispatch("patch_graph", JsonValue(std::move(root)));
    } else if (req.target.starts_with("/v2/graphs/") && req.method == "DELETE") {
      JsonValue::Object root;
      root.emplace("handle", JsonValue(req.target.substr(sizeof("/v2/graphs/") - 1)));
      body = session.dispatch("drop_graph", JsonValue(std::move(root)));
    } else if (req.target == "/v2/solvers" && req.method == "GET") {
      body = session.dispatch("solvers", JsonValue(JsonValue::Object{}));
    } else if (req.target == "/v2/stats" && req.method == "GET") {
      body = session.dispatch("stats", JsonValue(JsonValue::Object{}));
    } else if (req.target == "/v2/shutdown" && req.method == "POST") {
      body = session.dispatch("shutdown", JsonValue(JsonValue::Object{}));
    } else if (req.target == "/v2/replicate" && req.method == "POST") {
      // Install a peer's payload (the HTTP face of replicate_in).
      body = session.dispatch("replicate_in", parse_body(true));
    } else if (req.target == "/v2/replicate" && req.method == "GET") {
      // Export this server's payload (pull-mode replicate_out).
      body = session.dispatch("replicate_out", JsonValue(JsonValue::Object{}));
    } else if (req.target == "/v2/replicate/push" && req.method == "POST") {
      // Push this server's payload to the peer named in the body.
      body = session.dispatch("replicate_out", parse_body(true));
    } else {
      return make_response(
          404,
          encode_error(ErrorCode::BadRequest,
                       "no route " + req.method + " " + req.target +
                           " (try /v2/solve, /v2/graphs, /v2/solvers, /v2/stats)"),
          req.keep_alive);
    }
  } catch (const ProtocolError& e) {
    body = encode_error(e.code(), e.what());
  }
  return make_response(status_of(body), body, req.keep_alive);
}

std::string http_error_response(int status, ErrorCode code, std::string_view message) {
  return make_response(status, encode_error(code, message), /*keep_alive=*/false);
}

}  // namespace lmds::server
