#pragma once
// Thread-parallel, sharded batch execution over the solver registry — the
// serving engine the ROADMAP's run_batch seam promised. The LOCAL model of
// the paper is inherently parallel (every vertex decides from its r-ball);
// the systems analogue at the serving layer is parallelism *across graphs*:
// a batch is cut into shards, and a fixed-size set of workers forked by
// common::parallel_for claims them in index order from one atomic cursor.
// The calling thread first answers the longest prefix of cache hits, and
// forks only if a slot is left — warm serving batches never spawn a thread.
//
// Guarantees:
//  * Deterministic results — response i answers graphs[i] and is written to
//    a preallocated slot, so the Response vector is identical for any thread
//    count (every solver in the registry is deterministic; asserted over the
//    generator suite in tests/test_batch.cpp).
//  * Fail fast — a solver exception makes every worker stop claiming
//    shards; after the workers join, the exception of the lowest-index
//    failing graph is rethrown. Claims follow index order, so that graph is
//    always attempted and the rethrown error is the same for any thread
//    count.
//  * Reentrancy — one BatchExecutor may serve concurrent run_batch calls
//    from many threads. The executor itself holds no mutex and no
//    LMDS_GUARDED_BY members on purpose: opts_/registry_ are immutable after
//    construction, the shard cursor is a per-call local atomic, and the only
//    cross-call shared state is cache_, whose locking is annotated and
//    checked inside ResponseCache itself (api/cache.hpp). Exercised under
//    TSan by tests/test_concurrency.cpp.

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "api/cache.hpp"
#include "api/graph_store.hpp"

namespace lmds::api {

class Registry;

/// Tuning knobs of one batch execution.
struct BatchOptions {
  /// Worker parallelism. 1 runs inline on the calling thread; <= 0 picks
  /// std::thread::hardware_concurrency(). The effective count is clamped to
  /// the number of shards.
  int threads = 1;
  /// Graphs per shard — the unit a worker claims. Small shards balance
  /// better, large shards amortize claims; <= 0 is an error.
  int shard_size = 4;
  /// LRU response-cache capacity in entries; 0 disables caching.
  std::size_t cache_capacity = 0;
  /// Worker count for sharding EACH solve's per-vertex work (the second
  /// threading mode: intra-graph). 1 = sequential solves; <= 0 picks
  /// hardware_concurrency. Responses are bit-identical for every value, so
  /// this never enters cache keys — composes freely with `threads`
  /// (cross-graph) and with caching.
  int intra_graph_threads = 1;
};

/// Per-request deviations from the executor's configured BatchOptions — the
/// serving layer's "per-request options" (protocol v2). Everything unset
/// falls back to the BatchOptions the executor was built with; the response
/// cache itself (capacity, contents) is always the executor's.
struct BatchOverrides {
  std::optional<int> threads;     ///< worker parallelism for this batch only
  std::optional<int> shard_size;  ///< shard granularity for this batch only
  /// Intra-graph worker count for this batch only (see
  /// BatchOptions::intra_graph_threads). Never part of any cache key.
  std::optional<int> intra_graph_threads;
  /// Compute every response fresh and leave the cache untouched (no lookups,
  /// no inserts) — for clients that must not observe or pollute shared state.
  bool bypass_cache = false;
  /// Tenant tag threaded into every CacheKey of this batch ("" = default
  /// namespace). Distinct namespaces never share cache entries.
  std::string cache_namespace;
};

/// What one run_batch call did — the executor-level Diagnostics. Cache
/// counters are counted at this batch's own cache accesses (exact even with
/// concurrent run_batch calls on one executor); lifetime totals are
/// BatchExecutor::cache_stats().
struct BatchDiagnostics {
  /// Workers the batch was sized for: min(threads, shards). The cache-hit
  /// prefix runs on the calling thread first, so an all-hit batch forks
  /// nothing and reports 0 stolen shards, with threads and shards unchanged.
  int threads = 1;
  int intra_threads = 1;     ///< per-solve worker count (resolved; 1 = off)
  int shards = 0;            ///< shards the batch was cut into
  std::uint64_t stolen_shards = 0;  ///< shards run off their round-robin home worker (s % threads)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Ball-granular incremental re-solve (patched-graph batches only; see the
  // `lineages` span of run_batch). These count whole responses / vertices,
  // not cache accesses: an incremental solve's parent and sub-solve lookups
  // hit the executor's lifetime CacheStats but not cache_hits above, which
  // stays "top-level key accesses" so existing dashboards keep their meaning.
  std::uint64_t incremental_solves = 0;     ///< responses spliced from a parent's cached response
  std::uint64_t incremental_fallbacks = 0;  ///< lineage present but a full re-solve was taken
  std::uint64_t incremental_dirty = 0;      ///< vertices re-decided across incremental solves
};

/// Lifetime load counters of one BatchExecutor, readable while batches run —
/// the server surfaces them under `stats`/`GET /v2/stats` as `"executor"`, so
/// a soak report can correlate ratio anomalies with load. Counted with
/// relaxed atomics inside the executor; a snapshot is not a consistent cut
/// across fields, which is fine for health reporting.
struct ExecutorHealth {
  std::uint64_t batches_started = 0;    ///< run_batch calls accepted (post-validation)
  std::uint64_t batches_in_flight = 0;  ///< run_batch calls currently executing
  std::uint64_t shards_executed = 0;    ///< shards dealt across all batches
  std::uint64_t solves_served = 0;      ///< per-graph responses produced (cache hits included)
};

/// Sharded parallel batch runner with a response cache that persists across
/// run_batch calls.
class BatchExecutor {
 public:
  /// Runs against Registry::instance().
  explicit BatchExecutor(BatchOptions opts = {});
  /// Runs against a specific registry (tests use local registries).
  BatchExecutor(BatchOptions opts, const Registry& registry);

  /// Executes one request shape across many graphs (req.graph is ignored);
  /// response i answers graphs[i]. Request validation (unknown solver,
  /// undeclared or type-mismatched option, traffic on a centralized-only
  /// solver) throws RequestError before any work starts. If `diag` is
  /// non-null it receives this batch's executor diagnostics.
  std::vector<Response> run_batch(std::string_view solver, std::span<const Graph> graphs,
                                  const Request& req, BatchDiagnostics* diag = nullptr);

  /// Same, with per-request overrides (threads, shard size, cache bypass,
  /// cache namespace). An overridden shard_size <= 0 or threads out of
  /// sanity range throws RequestError — it is the request's fault, not the
  /// executor's configuration.
  std::vector<Response> run_batch(std::string_view solver, std::span<const Graph> graphs,
                                  const Request& req, const BatchOverrides& over,
                                  BatchDiagnostics* diag = nullptr);

  /// Pointer-span variant for callers whose graphs are not contiguous —
  /// the serving layer's solve-by-handle path hands the GraphStore's stored
  /// graphs straight to the workers, no per-request copies. The contiguous
  /// overloads above forward here with a pointer per graph. Every pointer must
  /// be non-null and outlive the call. `graph_hashes`, when non-empty, must
  /// parallel `graphs` and carries precomputed graph_hash fingerprints (a
  /// graph-store handle *is* its graph's hash, so handle solves skip the
  /// O(V+E) hash walk entirely); a 0 entry means "unknown, compute" — the
  /// one-in-2^64 graph whose real hash is 0 merely loses the skip.
  ///
  /// `lineages`, when non-empty, parallels `graphs`: entry i is graphs[i]'s
  /// GraphStore::PatchLineage (nullptr for non-derived graphs). On a cache
  /// miss for a derived graph whose solver declares a locality_radius, the
  /// executor answers incrementally: it BFS-bounds the set of vertices whose
  /// radius-r ball touches an edited edge, re-runs the solver only on the
  /// induced support subgraph (memoized under a ball-signature cache
  /// sub-key, so the entry survives edits outside its ball), and splices
  /// those decisions into the parent's cached response. Falls back to a full
  /// re-solve — bit-identical results either way — when the parent response
  /// is not cached, the solver is not decomposable, the cache is
  /// bypassed/disabled, or the request measures traffic or ratio.
  std::vector<Response> run_batch(std::string_view solver,
                                  std::span<const Graph* const> graphs, const Request& req,
                                  const BatchOverrides& over,
                                  BatchDiagnostics* diag = nullptr,
                                  std::span<const std::uint64_t> graph_hashes = {},
                                  std::span<const std::shared_ptr<const PatchLineage>>
                                      lineages = {});

  /// The pointer-span run_batch without the copies: slot i answers graphs[i]
  /// with a shared entry — on a cache hit the cache's own entry, otherwise a
  /// private one holding the fresh Response (the cache keeps its own
  /// exact-size copy). A serving front-end encodes each slot through
  /// CachedResponse::memo, so only entries served as hits keep their bytes.
  /// The Response-vector overloads copy out of these; same arguments, same
  /// diagnostics, same errors.
  std::vector<std::shared_ptr<const CachedResponse>> run_batch_shared(
      std::string_view solver, std::span<const Graph* const> graphs, const Request& req,
      const BatchOverrides& over, BatchDiagnostics* diag = nullptr,
      std::span<const std::uint64_t> graph_hashes = {},
      std::span<const std::shared_ptr<const PatchLineage>> lineages = {});

  const BatchOptions& options() const { return opts_; }
  /// Lifetime counters of the executor's cache.
  CacheStats cache_stats() const { return cache_.stats(); }
  /// Snapshot of the executor's load counters (see ExecutorHealth).
  ExecutorHealth health() const {
    ExecutorHealth h;
    h.batches_started = batches_started_.load(std::memory_order_relaxed);
    h.batches_in_flight = batches_in_flight_.load(std::memory_order_relaxed);
    h.shards_executed = shards_executed_.load(std::memory_order_relaxed);
    h.solves_served = solves_served_.load(std::memory_order_relaxed);
    return h;
  }
  void clear_cache() { cache_.clear(); }
  /// The executor's response cache — exposed so a serving front-end can
  /// snapshot it across restarts (ResponseCache::serialize/deserialize).
  ResponseCache& cache() { return cache_; }
  const ResponseCache& cache() const { return cache_; }

 private:
  BatchOptions opts_;
  const Registry& registry_;
  ResponseCache cache_;
  // Health counters (not part of the no-shared-state claim above: they are
  // monotone relaxed atomics, observational only, never read back by workers).
  std::atomic<std::uint64_t> batches_started_{0};
  std::atomic<std::uint64_t> batches_in_flight_{0};
  std::atomic<std::uint64_t> shards_executed_{0};
  std::atomic<std::uint64_t> solves_served_{0};
};

}  // namespace lmds::api
