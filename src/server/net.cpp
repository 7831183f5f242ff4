#include "server/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
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

bool send_all(int fd, std::span<const std::string_view> pieces) {
  // Up to kBatch pieces per sendmsg; a short write resumes inside the piece
  // where it stopped.
  constexpr std::size_t kBatch = 64;
  std::size_t next = 0;    // first piece not fully written
  std::size_t offset = 0;  // bytes of pieces[next] already written
  while (true) {
    iovec iov[kBatch];
    std::size_t count = 0;
    for (std::size_t i = next; i < pieces.size() && count < kBatch; ++i) {
      const std::string_view piece = i == next ? pieces[i].substr(offset) : pieces[i];
      if (piece.empty()) continue;
      iov[count++] = {const_cast<char*>(piece.data()), piece.size()};
    }
    if (count == 0) return true;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(n);
    while (next < pieces.size() && pieces[next].size() - offset <= sent) {
      sent -= pieces[next].size() - offset;
      ++next;
      offset = 0;
    }
    offset += sent;
  }
}

bool send_all(int fd, std::string_view data) {
  return send_all(fd, std::span<const std::string_view>(&data, 1));
}

void LineReader::consume() {
  begin_ += handed_;
  handed_ = 0;
  scanned_ = std::max(scanned_, begin_);
  if (begin_ == end_) begin_ = end_ = scanned_ = 0;  // empty: refill from the front
}

std::optional<std::string_view> LineReader::next_line_view(std::size_t max_bytes) {
  consume();
  if (oversized_) return std::nullopt;
  while (true) {
    // Bytes before scanned_ were searched by an earlier pass: a long line
    // arriving in many reads is scanned once, not once per read.
    const std::string_view held(buffer_.get(), end_);
    const std::size_t nl = held.find('\n', scanned_);
    const bool terminated = nl != std::string_view::npos;
    const std::size_t length = (terminated ? nl : end_) - begin_;
    if (length > max_bytes) {
      oversized_ = true;
      return std::nullopt;
    }
    if (terminated || (eof_ && length > 0)) {
      // A newline ends the line; at EOF, trailing data without one still
      // counts as a line.
      handed_ = terminated ? length + 1 : length;
      scanned_ = begin_ + handed_;
      std::string_view line = held.substr(begin_, length);
      if (terminated && line.ends_with('\r')) line.remove_suffix(1);
      return line;
    }
    scanned_ = end_;
    if (eof_) return std::nullopt;
    if (!fill()) return std::nullopt;
  }
}

std::optional<std::string> LineReader::next_line(std::size_t max_bytes) {
  const std::optional<std::string_view> line = next_line_view(max_bytes);
  if (!line) return std::nullopt;
  return std::string(*line);
}

std::optional<std::string> LineReader::read_exact(std::size_t n) {
  consume();
  while (end_ - begin_ < n && !eof_) {
    if (!fill()) return std::nullopt;
  }
  if (end_ - begin_ < n) return std::nullopt;  // peer closed mid-body
  handed_ = n;
  return std::string(buffer_.get() + begin_, n);
}

bool LineReader::fill() {
  constexpr std::size_t kChunk = 65536;  // the least free space one recv gets
  if (capacity_ - end_ < kChunk) {
    const std::size_t live = end_ - begin_;
    if (capacity_ - live < kChunk) {
      const std::size_t capacity = std::max(2 * capacity_, live + kChunk);
      std::unique_ptr<char[]> grown = std::make_unique_for_overwrite<char[]>(capacity);
      if (live > 0) std::memcpy(grown.get(), buffer_.get() + begin_, live);
      buffer_ = std::move(grown);
      capacity_ = capacity;
    } else {
      std::memmove(buffer_.get(), buffer_.get() + begin_, live);
    }
    scanned_ -= begin_;
    begin_ = 0;
    end_ = live;
  }
  ssize_t n;
  while ((n = ::recv(fd_, buffer_.get() + end_, capacity_ - end_, 0)) < 0 && errno == EINTR) {
  }
  // SO_RCVTIMEO expired: the fd is still usable, report "no data" but
  // remember why so the caller can tell silence from a closed peer.
  timed_out_ = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  if (timed_out_) return false;
  if (n > 0) {
    end_ += static_cast<std::size_t>(n);
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
