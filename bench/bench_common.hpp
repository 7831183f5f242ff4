// Shared plumbing of the benches: the five CI benches (bench_serve_v2,
// bench_patch_throughput, bench_perf, bench_cluster, bench_batch_throughput)
// and bench_paper, the paper's claims as one gated run table. It provides
// wall-clock and CPU timing, a median, locale-proof JSON numbers, a
// declared-flags parser with the built-in --check and --json FILE,
// regression gates, and the BENCH_*.json writer whose runs[].graphs_per_sec
// scripts/bench_regression.py ratchets (bench_paper writes no artifact). Every artifact also records the
// process's wall and CPU time (user + sys) since the Harness was built, their
// ratio and the host's core count, so a scaling figure can be read against
// the CPU it actually got.
//
//   int iters = 40;  // the default
//   bench::Harness h("serve_v2", argc, argv, {{"--iters", &iters}});
//   ...
//   h.gate(speedup >= 2.0, "speedup %.2fx (need >= 2x)", speedup);
//   h.write_json({{"iters", std::to_string(iters)}}, {{{"graphs_per_sec", ...}}});
//   return h.exit_code();

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

namespace lmds::bench {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The median of `xs` (the upper one of an even count); xs is non-empty.
inline double median(std::vector<double> xs) {
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2), xs.end());
  return xs[xs.size() / 2];
}

/// CPU time (user + sys) this process has used so far.
inline double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Locale-independent fixed-point formatting for the JSON artifact: fprintf's
// "%f" obeys LC_NUMERIC, so under e.g. de_DE it writes "0,125" and corrupts
// BENCH_*.json; std::to_chars always emits '.'.
inline std::string json_num(double v, int precision) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

/// A JSON string literal. Unescaped: the values are member names, bench
/// names, presets and registry solver names.
inline std::string json_str(std::string_view s) { return '"' + std::string(s) + '"'; }

/// JSON object members in output order: a name and its rendered JSON value.
using Fields = std::vector<std::pair<std::string, std::string>>;

inline std::string json_object(const Fields& fields) {
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += json_str(name) + ": " + value;
  }
  return out + "}";
}

/// A declared flag: `name VALUE` stores VALUE into *target, which an int
/// flag requires to be a whole decimal int.
struct Flag {
  const char* name;
  std::variant<int*, std::string*> target;
  const char* metavar = "N";
};

class Harness {
 public:
  /// Parses argv against `flags` plus the built-in --check and --json FILE.
  /// An undeclared flag, a missing value or a malformed int prints usage and
  /// exits 2.
  Harness(std::string name, int argc, char** argv, std::initializer_list<Flag> flags)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--check") {
        check_ = true;
        continue;
      }
      if (i + 1 == argc) usage(flags);
      const char* value = argv[++i];
      if (arg == "--json") {
        json_path_ = value;
        continue;
      }
      const Flag* flag = nullptr;
      for (const Flag& f : flags) {
        if (arg == f.name) flag = &f;
      }
      if (!flag || !store(*flag, value)) usage(flags);
    }
  }

  /// Under --check, a false `ok` prints "REGRESSION: <message>" to stderr
  /// and makes exit_code() 1; without --check gates are not judged.
  [[gnu::format(printf, 3, 4)]] void gate(bool ok, const char* fmt, ...) {
    if (ok || !check_) return;
    std::fputs("REGRESSION: ", stderr);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    failed_ = true;
  }

  /// With --json FILE, writes {"bench": <name>, <fields>, "wall_s",
  /// "cpu_s", "cpu_per_wall", "host_cores", "runs": [<runs>]} to FILE; the
  /// times run from the Harness's construction. Exits 1 when FILE cannot be
  /// opened, written or closed, so a truncated artifact never passes for a
  /// measurement.
  void write_json(const Fields& fields, const std::vector<Fields>& runs) const {
    if (json_path_.empty()) return;
    const double wall = seconds_since(wall_start_);
    const double cpu = cpu_seconds() - cpu_start_;
    Fields members = fields;
    members.insert(members.end(),
                   {{"wall_s", json_num(wall, 3)},
                    {"cpu_s", json_num(cpu, 3)},
                    {"cpu_per_wall", json_num(wall > 0 ? cpu / wall : 0, 3)},
                    {"host_cores", std::to_string(std::thread::hardware_concurrency())}});
    std::string text = "{\n  \"bench\": " + json_str(name_);
    for (const auto& [name, value] : members) text += ",\n  " + json_str(name) + ": " + value;
    text += ",\n  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      text += (i ? ",\n    " : "\n    ") + json_object(runs[i]);
    }
    text += "\n  ]\n}\n";
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    const bool written = f && std::fputs(text.c_str(), f) >= 0;
    if (!f || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
      std::exit(1);
    }
    std::printf("wrote %s\n", json_path_.c_str());
  }

  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  static bool store(const Flag& flag, const char* value) {
    if (std::string* const* s = std::get_if<std::string*>(&flag.target)) {
      **s = value;
      return true;
    }
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, *std::get<int*>(flag.target));
    return ec == std::errc() && ptr == end;
  }

  [[noreturn]] void usage(std::initializer_list<Flag> flags) const {
    std::string text = "usage: bench_" + name_;
    for (const Flag& f : flags) text += std::string(" [") + f.name + ' ' + f.metavar + ']';
    std::fprintf(stderr, "%s [--check] [--json FILE]\n", text.c_str());
    std::exit(2);
  }

  std::string name_;
  std::chrono::steady_clock::time_point wall_start_ = std::chrono::steady_clock::now();
  double cpu_start_ = cpu_seconds();
  bool check_ = false;
  std::string json_path_;
  bool failed_ = false;
};

}  // namespace lmds::bench
