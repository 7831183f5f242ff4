// lmds_soak — the long-running quality harness (src/soak) as a CLI: boots an
// in-process lmds_serve on ephemeral ports, streams deterministic minor-free
// workloads through it over TCP and HTTP under BAI arm selection, oracle-
// checks every response against the paper's bounds, fuzzes the protocol, and
// writes one JSON report.
//
//   $ ./lmds_soak --duration 10 --seed 42 --report soak.json
//   $ ./lmds_soak --check                        # CI smoke: short + strict
//
// `--duration N` is a deterministic work budget (N work units, roughly a
// second each), not wall-clock — two runs with the same seed/duration/flags
// emit byte-identical reports (the determinism CI gate diffs them).
// `--timing` adds measured wall_seconds to the report and gives that up.
//
// Exit codes: 0 clean; 1 oracle violations (repros under --repro-dir);
//             2 usage; 3 fuzz failure (server crashed or wedged).

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "soak/harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lmds_soak [--seed N] [--duration UNITS] [--check]\n"
               "                 [--report FILE] [--repro-dir DIR] [--timing]\n"
               "--check is the CI smoke: --duration 2.\n"
               "--duration is a deterministic work budget (~1s per unit), so equal\n"
               "seeds produce byte-identical reports; --timing trades that for\n"
               "measured wall_seconds.\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_int(const char* text, int& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && out > 0;
}

}  // namespace

int main(int argc, char** argv) {
  lmds::soak::SoakOptions opts;
  std::string report_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--seed" && value) {
      if (!parse_u64(value, opts.seed)) {
        std::fprintf(stderr, "lmds_soak: bad seed '%s'\n", value);
        return usage();
      }
      ++i;
    } else if (arg == "--duration" && value) {
      if (!parse_int(value, opts.duration)) {
        std::fprintf(stderr, "lmds_soak: bad duration '%s'\n", value);
        return usage();
      }
      ++i;
    } else if (arg == "--check") {
      opts.duration = 2;
    } else if (arg == "--report" && value) {
      report_path = value;
      ++i;
    } else if (arg == "--repro-dir" && value) {
      opts.repro_dir = value;
      ++i;
    } else if (arg == "--timing") {
      opts.timing = true;
    } else {
      std::fprintf(stderr, "lmds_soak: bad flag: %s\n", arg.c_str());
      return usage();
    }
  }

  lmds::soak::SoakReport report;
  try {
    report = lmds::soak::run_soak(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmds_soak: harness failure: %s\n", e.what());
    return 3;
  }

  const std::string json = report.to_json();
  if (report_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::ofstream out(report_path);
    out << json << '\n';
    if (!out) {
      std::fprintf(stderr, "lmds_soak: cannot write report to %s\n", report_path.c_str());
      return 2;
    }
  }

  std::fprintf(stderr,
               "lmds_soak: seed=%llu duration=%d best=%s violations=%llu fuzz_failures=%llu\n",
               static_cast<unsigned long long>(report.seed), report.duration,
               report.best_config.c_str(),
               static_cast<unsigned long long>(report.total_violations()),
               static_cast<unsigned long long>(report.fuzz.failures));
  if (report.fuzz.failures > 0) return 3;
  if (report.total_violations() > 0) return 1;
  return 0;
}
