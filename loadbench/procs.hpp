#pragma once
// lmds_serve child processes for the load benchmark: spawn with ephemeral
// ports, read the bound ports back from the server's stdout, sample CPU time
// and peak RSS from /proc, and shut down (verb first, SIGKILL as the last
// resort) so no server outlives a run.

#include <sys/types.h>

#include <string>
#include <vector>

namespace loadbench {

class ServerProc {
 public:
  /// Spawns `bin` with `args` plus "--port <port>" (0 = ephemeral) and, when
  /// `http`, "--http-port 0"; then blocks until the server printed its bound
  /// port(s). Throws std::runtime_error when the process cannot start or
  /// never reports (e.g. the fixed port is taken).
  ServerProc(const std::string& bin, const std::vector<std::string>& args, bool http,
             int port = 0);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  int port() const { return port_; }
  int http_port() const { return http_port_; }

  /// user+sys CPU seconds of the whole process so far (all threads, live and
  /// exited), from /proc/<pid>/stat.
  double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mb() const;

  /// Sends the shutdown verb and reaps the process; kills it when it does
  /// not exit within a few seconds. Idempotent.
  void shutdown();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
  int http_port_ = -1;
};

/// Kills every live server this process spawned (the watchdog's exit path).
void kill_all_servers();

/// CPU seconds (user+sys) this process has used so far, all threads.
double self_cpu_seconds();

}  // namespace loadbench
