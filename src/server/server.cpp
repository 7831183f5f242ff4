#include "server/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "server/http.hpp"
#include "server/json.hpp"
#include "server/net.hpp"

namespace lmds::server {

Server::Server(ServerOptions opts) : Server(std::move(opts), api::Registry::instance()) {}

Server::Server(ServerOptions opts, const api::Registry& registry)
    : opts_(std::move(opts)), core_(opts_.core, registry) {
  // The stop callback unblocks accept() in serve() and wakes blocked
  // connection reads; registered here so a shutdown verb handled through
  // any Session (any transport, or handle_line in a test) stops the server.
  core_.set_stop_callback([this] {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (http_listen_fd_ >= 0) ::shutdown(http_listen_fd_, SHUT_RDWR);
    common::MutexLock lock(conn_mu_);
    // SHUT_RD only: unblocks each connection's recv() while still letting an
    // in-flight response (the shutdown ack itself) reach the client. The fd
    // is guaranteed open here — only reap/drain (same mutex) may close it.
    for (const auto& conn : conns_) {
      if (!conn->done.load()) ::shutdown(conn->fd, SHUT_RD);
    }
  });
}

Server::~Server() {
  request_stop();
  common::MutexLock lock(conn_mu_);
  for (const auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
    close_fd(conn->fd);
  }
  conns_.clear();
  close_fd(listen_fd_);
  close_fd(http_listen_fd_);
}

std::string Server::handle_line(std::string_view line) {
  // A fresh Session per call: stateless and safe to call from any number of
  // threads, exactly like PR 4's handle_line. Callers that want open_session
  // state hold their own Session over core().
  Session session(core_);
  return session.handle_line(line);
}

std::pair<int, int> Server::bind_one(int port) const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + errno_string(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(fd);
    throw std::runtime_error("invalid host address: " + opts_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string error = errno_string(errno);
    close_fd(fd);
    throw std::runtime_error("bind(" + opts_.host + ":" + std::to_string(port) +
                             "): " + error);
  }
  if (::listen(fd, 64) != 0) {
    const std::string error = errno_string(errno);
    close_fd(fd);
    throw std::runtime_error("listen(): " + error);
  }
  // Non-blocking listeners: a connection that is reset between poll() and
  // accept() must yield EAGAIN, not block the single accepting thread on
  // one listener while the other starves.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const std::string error = errno_string(errno);
    close_fd(fd);
    throw std::runtime_error("fcntl(O_NONBLOCK): " + error);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string error = errno_string(errno);
    close_fd(fd);
    throw std::runtime_error("getsockname(): " + error);
  }
  return {fd, ntohs(bound.sin_port)};
}

void Server::bind_and_listen() {
  std::tie(listen_fd_, bound_port_) = bind_one(opts_.port);
  if (opts_.http_port >= 0) {
    std::tie(http_listen_fd_, bound_http_port_) = bind_one(opts_.http_port);
  }
}

std::size_t Server::reap_finished_locked() {
  std::erase_if(conns_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load()) return false;
    if (conn->thread.joinable()) conn->thread.join();  // finished: joins instantly
    close_fd(conn->fd);
    return true;
  });
  return conns_.size();
}

void Server::serve() {
  if (listen_fd_ < 0) throw std::runtime_error("serve() before bind_and_listen()");
  while (!core_.stopping()) {
    pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds++] = {listen_fd_, POLLIN, 0};
    if (http_listen_fd_ >= 0) fds[nfds++] = {http_listen_fd_, POLLIN, 0};
    const int ready = ::poll(fds, nfds, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (nfds_t i = 0; i < nfds; ++i) {
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      const bool http = fds[i].fd == http_listen_fd_;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) {
        // Per-connection failures must not take down a long-lived server: a
        // client aborting its handshake (ECONNABORTED/EPROTO) is retryable,
        // and resource pressure (fd table full, no buffers) gets a brief
        // back-off. Anything else — notably the EINVAL after request_stop()
        // shuts the listener — ends the loop.
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // raced: back to poll()
        if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          continue;
        }
        core_.request_stop();
        break;
      }
      if (core_.stopping()) {
        close_fd(fd);
        break;
      }
      common::MutexLock lock(conn_mu_);
      // Bound dead threads by live connections, not total served — and use
      // the live count to enforce the connection cap.
      const std::size_t live = reap_finished_locked();
      if (live >= opts_.max_connections) {
        // Accept storms must not translate into unbounded threads: answer
        // server_busy on the accepting thread (one tiny write) and close.
        const std::string busy = "connection limit reached (" +
                                 std::to_string(opts_.max_connections) +
                                 " concurrent connections); retry later";
        if (http) {
          (void)send_all(fd, http_error_response(503, ErrorCode::ServerBusy, busy));
        } else {
          (void)send_all(fd, encode_error(ErrorCode::ServerBusy, busy) + "\n");
        }
        // Closing with unread request bytes in the receive queue makes TCP
        // send an RST that can destroy the queued response. Half-close the
        // write side (flush + FIN), then consume whatever the client already
        // transmitted — non-blocking, so a slow client cannot stall the
        // accept loop; bytes still in flight after this keep the small
        // residual race.
        ::shutdown(fd, SHUT_WR);
        char drain[4096];
        while (::recv(fd, drain, sizeof drain, MSG_DONTWAIT) > 0) {
        }
        close_fd(fd);
        core_.count_rejected();
        continue;
      }
      core_.count_connection();
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->http = http;
      Connection* raw = conn.get();
      conns_.push_back(std::move(conn));
      raw->thread = std::thread(&Server::handle_connection, this, raw);
    }
  }
  // Drain: join every connection thread before returning so the caller can
  // safely destroy the Server (threads reference `this`).
  std::vector<std::unique_ptr<Connection>> conns;
  {
    common::MutexLock lock(conn_mu_);
    conns.swap(conns_);
  }
  // The stop callback SHUT_RDs connections it sees under conn_mu_, but this
  // drain may win that lock first and swap conns_ out from under it — so
  // wake every still-blocked recv() here too before joining, or a reader
  // that missed the callback would block the drain forever.
  for (const auto& conn : conns) {
    if (!conn->done.load()) ::shutdown(conn->fd, SHUT_RD);
  }
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    close_fd(conn->fd);
  }
}

void Server::handle_connection(Connection* conn) {
  if (conn->http) {
    serve_http_connection(conn->fd);
  } else {
    serve_line_connection(conn->fd);
  }
  ::shutdown(conn->fd, SHUT_RDWR);  // the owner (reap/drain/destructor) closes it
  conn->done.store(true);
}

void Server::serve_line_connection(int fd) {
  LineReader reader(fd);
  // Owned lease scope: pins made on this connection belong to it and are
  // released when the Session dies with the connection — a crashed client
  // cannot leave capacity pinned (tested by tests/test_cluster.cpp).
  Session session(core_, Session::LeaseScope::Owned);  // + open_session state
  while (!core_.stopping()) {
    // Parsed in place: the view (and every graph slot parsed from it) lives
    // until the next read, past this request's reply.
    const std::optional<std::string_view> line =
        reader.next_line_view(opts_.core.limits.max_line_bytes);
    if (!line) {
      if (reader.oversized()) {
        // The line is longer than the limit; report and drop the
        // connection — resynchronizing mid-line would misparse what follows.
        (void)send_all(fd, encode_error(ErrorCode::BadRequest,
                                        "request line exceeds " +
                                            std::to_string(opts_.core.limits.max_line_bytes) +
                                            " bytes") +
                               "\n");
      }
      break;
    }
    if (line->empty()) continue;  // blank keep-alive lines are ignored
    const std::string response = session.handle_line(*line);
    const std::string_view reply[] = {response, "\n"};
    if (!send_all(fd, reply)) break;
  }
}

void Server::serve_http_connection(int fd) {
  LineReader reader(fd);
  // Owned for the same reason as the line transport; namespace comes from
  // each request's header.
  Session session(core_, Session::LeaseScope::Owned);
  while (!core_.stopping()) {
    std::optional<HttpRequest> request;
    try {
      request = read_http_request(reader, fd, opts_.core.limits);
    } catch (const HttpError& e) {
      // Framing is unrecoverable mid-stream: answer once and drop.
      (void)send_all(fd, http_error_response(e.status(), ErrorCode::BadRequest, e.what()));
      break;
    }
    if (!request) break;  // clean EOF
    const std::string response = handle_http_request(*request, session);
    if (!send_all(fd, response)) break;
    if (!request->keep_alive) break;
  }
}

void Server::request_stop() { core_.request_stop(); }

}  // namespace lmds::server
