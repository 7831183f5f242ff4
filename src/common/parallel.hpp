#pragma once
// Deterministic fork-join parallelism, the library's one per-call thread
// spawner: gather_views, the LOCAL runners, BatchExecutor's shard workers and
// the router's sub-batch fan-out all fork here. Outputs stay bit-identical
// for any thread count because work is split into contiguous index chunks,
// each chunk writes only its own slots of a preallocated result array, and
// the caller collects slots in index order afterwards.

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace lmds::common {

/// Resolves a thread-count knob: positive values pass through, <= 0 means
/// std::thread::hardware_concurrency() (at least 1).
inline int resolve_thread_count(int threads) {
  if (threads > 0) return threads;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs fn(begin, end) over a partition of [0, n) into contiguous chunks,
/// one per worker. Worker 0 runs on the calling thread, so threads <= 1
/// never spawns. The first exception (lowest worker index) is rethrown
/// after all workers joined — no thread is ever abandoned.
template <typename Fn>
void parallel_for(int n, int threads, const Fn& fn) {
  if (n <= 0) return;
  int workers = std::min(resolve_thread_count(threads), n);
  if (workers <= 1) {
    fn(0, n);
    return;
  }
  const int chunk = (n + workers - 1) / workers;
  workers = (n + chunk - 1) / chunk;  // drop workers an uneven split starves
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  const auto run = [&](int w) {
    const int begin = w * chunk;
    const int end = std::min(n, begin + chunk);
    try {
      fn(begin, end);
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(run, w);
  run(0);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace lmds::common
