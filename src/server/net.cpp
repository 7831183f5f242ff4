#include "server/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace lmds::server {

std::optional<std::pair<std::string, int>> parse_host_port(std::string_view addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 == addr.size()) {
    return std::nullopt;
  }
  int port = 0;
  for (const char c : addr.substr(colon + 1)) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + (c - '0');
    if (port > 65535) return std::nullopt;
  }
  return std::pair{std::string(addr.substr(0, colon)), port};
}

namespace {

/// Closes `fd` and returns -1 with errno = `err`: every tcp_connect failure.
int fail_connect(int fd, int err) {
  close_fd(fd);
  errno = err;
  return -1;
}

}  // namespace

int tcp_connect(const std::string& host, int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return fail_connect(fd, EINVAL);
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  if (timeout_ms <= 0) {
    return ::connect(fd, sa, sizeof addr) == 0 ? fd : fail_connect(fd, errno);
  }
  // Non-blocking connect + poll-for-writable is the portable way to put a
  // deadline on the three-way handshake; SO_SNDTIMEO does not apply to
  // connect(2) on Linux.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return fail_connect(fd, errno);
  if (::connect(fd, sa, sizeof addr) != 0 && errno != EINPROGRESS) return fail_connect(fd, errno);
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  int rc;
  while ((rc = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
  }
  if (rc == 0) return fail_connect(fd, ETIMEDOUT);
  if (rc < 0) return fail_connect(fd, errno);
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return fail_connect(fd, errno);
  if (err != 0) return fail_connect(fd, err);
  if (::fcntl(fd, F_SETFL, flags) != 0) return fail_connect(fd, errno);  // back to blocking
  return fd;
}

bool set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  }
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0 &&
         ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) == 0;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::optional<std::string> LineReader::next_line(std::size_t max_bytes) {
  if (oversized_) return std::nullopt;
  while (true) {
    // Bytes before scanned_ were searched by an earlier pass: a long line
    // arriving in many reads is scanned once, not once per read.
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > max_bytes) {
      oversized_ = true;
      return std::nullopt;
    }
    if (eof_) {
      // Trailing data without a final newline still counts as a line.
      if (buffer_.empty()) return std::nullopt;
      std::string line = std::move(buffer_);
      buffer_.clear();
      scanned_ = 0;
      return line;
    }
    if (!fill()) return std::nullopt;
  }
}

std::optional<std::string> LineReader::read_exact(std::size_t n) {
  while (buffer_.size() < n && !eof_) {
    if (!fill()) return std::nullopt;
  }
  if (buffer_.size() < n) return std::nullopt;  // peer closed mid-body
  std::string out = buffer_.substr(0, n);
  buffer_.erase(0, n);
  scanned_ = 0;
  return out;
}

bool LineReader::fill() {
  char chunk[65536];
  ssize_t n;
  while ((n = ::recv(fd_, chunk, sizeof chunk, 0)) < 0 && errno == EINTR) {
  }
  // SO_RCVTIMEO expired: the fd is still usable, report "no data" but
  // remember why so the caller can tell silence from a closed peer.
  timed_out_ = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  if (timed_out_) return false;
  if (n > 0) {
    buffer_.append(chunk, static_cast<std::size_t>(n));
  } else {
    eof_ = true;  // a connection error counts as EOF
  }
  return true;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

namespace {
// strerror_r comes in two flavors; glibc with _GNU_SOURCE (the g++ default)
// returns char*, POSIX returns int and fills the buffer. Overloading on the
// result type handles both without a feature-test-macro dance.
// [[maybe_unused]]: exactly one overload is instantiated per libc.
[[maybe_unused]] std::string strerror_result(const char* msg, const char* /*buf*/) {
  return msg;
}
[[maybe_unused]] std::string strerror_result(int rc, const char* buf) {
  return rc == 0 ? std::string(buf) : std::string("unknown error");
}
}  // namespace

std::string errno_string(int err) {
  char buf[256] = {};
  return strerror_result(::strerror_r(err, buf, sizeof buf), buf);
}

}  // namespace lmds::server
