#pragma once
// Thin POSIX TCP helpers shared by the server's connection loop, the
// serve_client example and the socket tests. Linux/POSIX only — the serving
// subsystem is gated out of the build elsewhere (CMake) if the platform
// lacks these headers.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace lmds::server {

/// Splits "host:port" at the last colon. std::nullopt unless the host is
/// non-empty and the port is a non-empty run of decimal digits <= 65535.
std::optional<std::pair<std::string, int>> parse_host_port(std::string_view addr);

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"; anything else
/// is EINVAL). Returns the connected fd, or -1 with errno set. A positive
/// `timeout_ms` gives up after that many milliseconds (ETIMEDOUT) instead of
/// blocking for the kernel's SYN-retry eternity — the router's dial path to a
/// possibly-dead peer; the returned fd is blocking either way.
int tcp_connect(const std::string& host, int port, int timeout_ms = 0);

/// Bounds every subsequent recv/send on `fd` to `timeout_ms` milliseconds
/// (SO_RCVTIMEO / SO_SNDTIMEO); 0 restores fully blocking I/O. Returns false
/// with errno set if either setsockopt fails. A timed-out recv surfaces in
/// LineReader as timed_out(), distinct from EOF.
bool set_io_timeout(int fd, int timeout_ms);

/// Writes all of `data`, retrying on short writes / EINTR. Returns false on
/// a write error (e.g. peer closed).
bool send_all(int fd, std::string_view data);

/// Incremental newline-delimited reader over one fd. Reads in chunks,
/// buffers the remainder, hands back complete lines without the '\n'.
///
/// Deliberately unsynchronized (no mutex, no annotations): a LineReader is
/// owned by exactly one connection thread for its whole life. A concurrent
/// shutdown(2) on the fd from the stop path is safe — it only makes the
/// blocked recv() return 0 — but sharing the reader itself between threads
/// is a bug the TSan CI job would flag.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next complete line. std::nullopt on EOF with no buffered data, or when
  /// a line exceeds max_bytes (oversized_ is set — the caller should drop
  /// the connection; resynchronizing inside a half-read line is guesswork).
  std::optional<std::string> next_line(std::size_t max_bytes);

  /// Exactly `n` bytes (buffered remainder first, then the socket) — the
  /// HTTP front-end's Content-Length body read. std::nullopt when the peer
  /// closes before `n` bytes arrive, or on an I/O timeout (timed_out()).
  std::optional<std::string> read_exact(std::size_t n);

  bool oversized() const { return oversized_; }

  /// True when the last std::nullopt came from an I/O timeout (fd configured
  /// via set_io_timeout) rather than a real EOF/error. The connection is
  /// still alive but the peer went quiet — callers decide whether that is
  /// fatal (ProtocolClient treats it as io_error) or retryable.
  bool timed_out() const { return timed_out_; }

 private:
  /// One recv into buffer_, retrying EINTR: true when bytes arrived or the
  /// peer closed (eof_ set; a connection error counts as a close), false on
  /// an I/O timeout (timed_out_ set). Every recv sets timed_out_ afresh.
  bool fill();

  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< buffer_ prefix known to hold no '\n'
  bool eof_ = false;
  bool oversized_ = false;
  bool timed_out_ = false;
};

/// close(2) wrapper that ignores EINTR; safe on -1.
void close_fd(int fd);

/// Thread-safe strerror: formats `err` (an errno value) via strerror_r into
/// a caller-owned string. std::strerror may return a pointer into a shared
/// static buffer, which is a data race once two threads format errors at
/// once (clang-tidy's concurrency-mt-unsafe flags every use).
std::string errno_string(int err);

}  // namespace lmds::server
