#pragma once
// The soak run itself: boots one in-process lmds_serve (both transports,
// ephemeral ports), streams the deterministic workload (workload.hpp)
// through it under BAI arm selection (bai.hpp), oracle-checks every
// response (oracle.hpp), runs the protocol fuzz stage (fuzz.hpp), and
// returns the single JSON-able report (report.hpp).
//
// `duration` is a deterministic work budget — a fixed number of solve
// rounds and fuzz cases per unit — NOT wall-clock seconds (calibrated so a
// unit is about a second on a development machine). That is what makes
// `lmds_soak --duration 10 --seed 42` produce byte-identical reports across
// runs: same seed, same requests, same responses, same counters.

#include <cstdint>
#include <string>

#include "soak/report.hpp"

namespace lmds::soak {

struct SoakOptions {
  std::uint64_t seed = 1;
  int duration = 10;  ///< work units: kRoundsPerUnit solve rounds + kFuzzPerUnit fuzz cases each
  bool timing = false;  ///< include wall_seconds in the report (breaks byte-determinism)
  std::string repro_dir = "repro";  ///< where violation repros are dumped
};

/// Solve rounds per duration unit (each round = one batch on one arm).
inline constexpr int kRoundsPerUnit = 3;
/// Fuzz cases per duration unit per transport.
inline constexpr int kFuzzPerUnit = 12;
/// Graphs per solve round (one per workload family).
inline constexpr int kBatchSize = 5;

/// Runs one complete soak. Throws std::runtime_error only on harness-level
/// failures (cannot bind, cannot connect at startup); oracle violations and
/// fuzz failures are reported in the returned SoakReport, not thrown.
SoakReport run_soak(const SoakOptions& opts);

}  // namespace lmds::soak
