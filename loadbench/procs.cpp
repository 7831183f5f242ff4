#include "procs.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "server/net.hpp"

extern char** environ;

namespace loadbench {

namespace {

std::mutex g_live_mu;
std::set<pid_t> g_live;  // spawned and not yet reaped

void forget(pid_t pid) {
  const std::lock_guard<std::mutex> lock(g_live_mu);
  g_live.erase(pid);
}

/// Waits up to `ms` for `pid` to exit; true when it was reaped.
bool reap_within(pid_t pid, int ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Reads one '\n'-terminated line from a pipe, waiting at most until
/// `deadline`. Returns false on EOF or timeout.
bool read_line(int fd, std::string& buffer, std::string& line,
               std::chrono::steady_clock::time_point deadline) {
  while (true) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

int port_after_colon(const std::string& line) {
  return std::atoi(line.c_str() + line.rfind(':') + 1);
}

}  // namespace

ServerProc::ServerProc(const std::string& bin, const std::vector<std::string>& args, bool http,
                       int port) {
  std::vector<std::string> argv_s{bin, "--port", std::to_string(port)};
  if (http) {
    argv_s.emplace_back("--http-port");
    argv_s.emplace_back("0");
  }
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    throw std::runtime_error("cannot spawn " + bin + ": " + lmds::server::errno_string(rc));
  }
  pid_ = pid;
  stdout_fd_ = out[0];
  {
    const std::lock_guard<std::mutex> lock(g_live_mu);
    g_live.insert(pid_);
  }

  // "lmds_serve listening on H:P" then, with HTTP, "lmds_serve HTTP on H:P".
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::string buffer;
  std::string line;
  while ((port_ < 0 || (http && http_port_ < 0)) && read_line(stdout_fd_, buffer, line, deadline)) {
    if (line.find("listening on") != std::string::npos) port_ = port_after_colon(line);
    if (line.find("HTTP on") != std::string::npos) http_port_ = port_after_colon(line);
  }
  if (port_ <= 0 || (http && http_port_ <= 0)) {
    shutdown();
    throw std::runtime_error("lmds_serve did not report its port(s)");
  }
}

ServerProc::~ServerProc() { shutdown(); }

double ServerProc::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = all.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(all.substr(close + 2));
  // Field 3 (state) comes first; utime and stime are fields 14 and 15.
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0;
  double stime = 0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProc::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

void ServerProc::shutdown() {
  if (pid_ < 0) return;
  if (port_ > 0) {
    const int fd = lmds::server::tcp_connect("127.0.0.1", port_, 2000);
    if (fd >= 0) {
      lmds::server::set_io_timeout(fd, 5000);
      if (lmds::server::send_all(fd, "{\"op\":\"shutdown\"}\n")) {
        lmds::server::LineReader reader(fd);
        (void)reader.next_line(1 << 16);
      }
      lmds::server::close_fd(fd);
    }
  }
  if (!reap_within(pid_, 10000)) {
    ::kill(pid_, SIGKILL);
    (void)reap_within(pid_, 5000);
  }
  forget(pid_);
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

void kill_all_servers() {
  const std::lock_guard<std::mutex> lock(g_live_mu);
  for (const pid_t pid : g_live) {
    ::kill(pid, SIGKILL);
    int status = 0;
    (void)::waitpid(pid, &status, 0);
  }
  g_live.clear();
}

double self_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace loadbench
