#pragma once
// Thin POSIX TCP helpers shared by the server's connection loop, the
// serve_client example and the socket tests. Linux/POSIX only — the serving
// subsystem is gated out of the build elsewhere (CMake) if the platform
// lacks these headers.

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
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

/// Writes all of `pieces`, in order, as one gathered stream (sendmsg over
/// the pieces, no copy into one buffer), retrying on short writes / EINTR.
/// Returns false on a write error (e.g. peer closed).
bool send_all(int fd, std::span<const std::string_view> pieces);

/// send_all of one piece.
bool send_all(int fd, std::string_view data);

/// Incremental newline-delimited reader over one fd. Reads straight into
/// its own buffer and hands back complete lines without the '\n' (and
/// without a '\r' before it).
///
/// Lines are parsed in place: next_line_view returns a view into the
/// buffer, valid until the next call on this reader (any call: the line's
/// bytes, its newline included, are dropped from the buffer then). The
/// buffer keeps its capacity across lines, so a connection that carries
/// large requests does not give its memory back and fault it in again for
/// each one. Bytes are copied once, by recv into the buffer; the only other
/// moves are the buffer's growth and, when it needs room, bytes of a later
/// line that arrived with an earlier one moving to its front.
///
/// The limit is exact: a line of more than `max_bytes` bytes (the newline
/// not counted, a '\r' before it counted) is oversized wherever its newline
/// sits, in the read that crosses the limit or in a later one.
///
/// Deliberately unsynchronized (no mutex, no annotations): a LineReader is
/// owned by exactly one connection thread for its whole life. A concurrent
/// shutdown(2) on the fd from the stop path is safe — it only makes the
/// blocked recv() return 0 — but sharing the reader itself between threads
/// is a bug the TSan CI job would flag.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next complete line, as a view into the buffer (see above). An
  /// unterminated tail at EOF counts as a line. std::nullopt on EOF with no
  /// buffered data, on an I/O timeout (timed_out()), or when a line exceeds
  /// max_bytes (oversized() — the caller should drop the connection;
  /// resynchronizing inside a half-read line is guesswork).
  std::optional<std::string_view> next_line_view(std::size_t max_bytes);

  /// next_line_view plus one copy: a line that outlives the next call.
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
  /// Drops the bytes the last view or read handed out.
  void consume();

  /// One recv into the free end of the buffer (made room for first: the
  /// unconsumed bytes move to the front, or the buffer grows), retrying
  /// EINTR: true when bytes arrived or the peer closed (eof_ set; a
  /// connection error counts as a close), false on an I/O timeout
  /// (timed_out_ set). Every recv sets timed_out_ afresh.
  bool fill();

  int fd_;
  std::unique_ptr<char[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;     ///< first byte not yet handed out
  std::size_t end_ = 0;       ///< one past the last byte received
  std::size_t scanned_ = 0;   ///< [begin_, scanned_) is known to hold no '\n'
  std::size_t handed_ = 0;    ///< bytes after begin_ that the last call handed out
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
