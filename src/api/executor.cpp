#include "api/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>

#include "api/registry.hpp"
#include "common/mutex.hpp"
#include "common/parallel.hpp"
#include "graph/bfs.hpp"
#include "graph/hash.hpp"
#include "solve/validate.hpp"

namespace lmds::api {

namespace {

// Validity of a spliced answer whose parent answer was valid. Only the
// decisions at `dirty` changed, and every edited edge has dirty endpoints,
// so a vertex outside N[dirty] keeps its closed neighbourhood and every
// decision in it, and an edge with no dirty endpoint keeps both of its
// decisions: checking domination on N[dirty], or cover on the edges at
// dirty vertices, is the full check. The members of `solution` are marked
// in the worker's scratch, which costs O(|solution|) stores and no
// allocation.
bool valid_around(const Graph& g, Problem problem, std::span<const graph::Vertex> solution,
                  std::span<const graph::Vertex> dirty, graph::BfsScratch& scratch) {
  scratch.begin(g.num_vertices());
  for (graph::Vertex s : solution) scratch.mark(s, 0);
  const auto in = [&](graph::Vertex x) { return scratch.seen(x); };
  const auto dominated = [&](graph::Vertex x) {
    const auto nb = g.neighbors(x);
    return in(x) || std::any_of(nb.begin(), nb.end(), in);
  };
  for (graph::Vertex v : dirty) {
    const auto nb = g.neighbors(v);
    if (problem == Problem::Mvc) {
      if (!in(v) && !std::all_of(nb.begin(), nb.end(), in)) return false;
    } else if (!dominated(v) || !std::all_of(nb.begin(), nb.end(), dominated)) {
      return false;
    }
  }
  return true;
}

}  // namespace

BatchExecutor::BatchExecutor(BatchOptions opts) : BatchExecutor(opts, Registry::instance()) {}

BatchExecutor::BatchExecutor(BatchOptions opts, const Registry& registry)
    : opts_(opts), registry_(registry), cache_(opts.cache_capacity) {
  if (opts_.shard_size <= 0) {
    throw std::invalid_argument("BatchOptions::shard_size must be positive");
  }
}

std::vector<Response> BatchExecutor::run_batch(std::string_view solver,
                                               std::span<const Graph> graphs,
                                               const Request& req, BatchDiagnostics* diag) {
  return run_batch(solver, graphs, req, BatchOverrides{}, diag);
}

std::vector<Response> BatchExecutor::run_batch(std::string_view solver,
                                               std::span<const Graph> graphs,
                                               const Request& req, const BatchOverrides& over,
                                               BatchDiagnostics* diag) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return run_batch(solver, std::span<const Graph* const>(ptrs), req, over, diag);
}

std::vector<Response> BatchExecutor::run_batch(
    std::string_view solver, std::span<const Graph* const> graphs, const Request& req,
    const BatchOverrides& over, BatchDiagnostics* diag,
    std::span<const std::uint64_t> graph_hashes,
    std::span<const std::shared_ptr<const PatchLineage>> lineages) {
  const std::vector<std::shared_ptr<const CachedResponse>> entries = run_batch_shared(
      solver, graphs.size(), [&](std::size_t i) -> const Graph& { return *graphs[i]; }, req,
      over, diag, graph_hashes, lineages);
  std::vector<Response> out;
  out.reserve(entries.size());
  for (const std::shared_ptr<const CachedResponse>& entry : entries) {
    out.push_back(entry->response);
  }
  return out;
}

std::vector<std::shared_ptr<const CachedResponse>> BatchExecutor::run_batch_shared(
    std::string_view solver, std::size_t count, const GraphAccessor& graph_of,
    const Request& req, const BatchOverrides& over, BatchDiagnostics* diag,
    std::span<const std::uint64_t> graph_hashes,
    std::span<const std::shared_ptr<const PatchLineage>> lineages) {
  // Validate once, up front: a malformed request throws here, on the calling
  // thread, before any worker spawns or cache entry is touched. Workers then
  // take the trusted run_resolved path — one name lookup per graph, no
  // per-graph re-validation or options rebuild. Override values are part of
  // the request, so they are validated with RequestError too.
  const Options resolved = registry_.resolve_options(solver, req);
  if (over.shard_size && *over.shard_size <= 0) {
    throw RequestError("shard_size override must be positive");
  }
  if (over.threads && *over.threads > 4096) {
    throw RequestError("threads override too large (max 4096)");
  }
  if (over.intra_graph_threads && *over.intra_graph_threads > 4096) {
    throw RequestError("intra_threads override too large (max 4096)");
  }
  const std::size_t shard_size =
      static_cast<std::size_t>(over.shard_size.value_or(opts_.shard_size));
  const int shards = static_cast<int>((count + shard_size - 1) / shard_size);
  const int workers = std::max(
      1, std::min(common::resolve_thread_count(over.threads.value_or(opts_.threads)), shards));

  // The second threading mode: shard each solve's own per-vertex work.
  // Resolved here (not deep in the solver) so diagnostics can report the
  // actual count; never folded into cache keys — responses are bit-identical
  // for every value.
  const int intra_threads =
      common::resolve_thread_count(over.intra_graph_threads.value_or(1));

  const bool use_cache = cache_.enabled() && !over.bypass_cache;

  // Health counters: the batch exists once validation passed. The in-flight
  // gauge must drop on every exit path (including a rethrown solver error),
  // hence the RAII guard.
  batches_started_.fetch_add(1, std::memory_order_relaxed);
  batches_in_flight_.fetch_add(1, std::memory_order_relaxed);
  shards_executed_.fetch_add(static_cast<std::uint64_t>(shards), std::memory_order_relaxed);
  struct InFlightGuard {
    std::atomic<std::uint64_t>& gauge;
    ~InFlightGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } in_flight_guard{batches_in_flight_};

  std::vector<std::shared_ptr<const CachedResponse>> out(count);
  // Per-batch counters: concurrent run_batch calls share the cache, so the
  // per-batch numbers must be counted at the access sites, not diffed from
  // the cache's global stats.
  std::atomic<std::uint64_t> stolen{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> incr_solves{0};
  std::atomic<std::uint64_t> incr_fallbacks{0};
  std::atomic<std::uint64_t> incr_dirty{0};
  // Incremental eligibility, per batch: the splice base is the parent's
  // *cached* response, so the cache must be live; traffic/ratio are global
  // measurements a per-vertex splice cannot patch, so they force a full run.
  const SolverSpec& spec = registry_.at(solver);
  const bool lineage_ok =
      !lineages.empty() && use_cache && !req.measure_traffic && !req.measure_ratio;
  if (count > 0) {
    const std::string options_key =
        use_cache ? canonical_options(resolved, req.measure_traffic, req.measure_ratio)
                  : std::string();
    // Slot i's graph, read through the caller's accessor on first use only:
    // a slot that hits with a hash in hand is never read. Slot i's
    // fingerprint: the caller's, else graph_hash computed on first use.
    // Each slot is touched by one thread at a time.
    std::vector<const Graph*> read(count, nullptr);
    const auto graph_at = [&](std::size_t i) -> const Graph& {
      if (!read[i]) read[i] = &graph_of(i);
      return *read[i];
    };
    std::vector<std::uint64_t> hashes(count, 0);
    std::copy_n(graph_hashes.begin(), std::min(count, graph_hashes.size()), hashes.begin());
    const auto hash_of = [&](std::size_t i) {
      if (hashes[i] == 0) hashes[i] = graph::graph_hash(graph_at(i));
      return hashes[i];
    };

    // The hit prefix: the calling thread answers slots from the cache until
    // the first miss, so an all-hit batch never forks. It stops there rather
    // than looking up every slot: a graph repeated later in a cold batch must
    // still hit the entry its first occurrence inserts.
    std::size_t prefix = 0;
    if (use_cache) {
      CacheKey key{0, std::string(solver), options_key, over.cache_namespace};
      for (; prefix < count; ++prefix) {
        key.graph_hash = hash_of(prefix);
        std::shared_ptr<const CachedResponse> hit = cache_.lookup(key);
        if (!hit) break;
        out[prefix] = std::move(hit);
      }
      hits.fetch_add(prefix, std::memory_order_relaxed);
    }
    const int first_shard = static_cast<int>(prefix / shard_size);

    // Workers claim the shards left after the prefix in index order from one
    // atomic cursor. A shard counts as stolen (BatchDiagnostics::
    // stolen_shards) when a worker other than its round-robin home,
    // s % workers, runs it.
    std::atomic<int> next_shard{first_shard};

    // The flag makes every worker stop claiming. A claimed shard always runs
    // to its first failure, and every shard below a failing one was claimed
    // before it, so the lowest-index failing graph is always attempted and
    // its exception is the one rethrown, for any thread count.
    std::atomic<bool> failed{false};
    common::Mutex error_mu;  // guards first_error + error_index (locals, so
                             // GUARDED_BY cannot name them — see the
                             // worker's catch block, the only locked path)
    std::exception_ptr first_error;
    std::size_t error_index = count;

    // Ball-granular incremental re-solve of a patched graph `g` against its
    // lineage. Correctness rests on the locality contract (SolverSpec::
    // locality_radius): a vertex at distance > r from every edited endpoint
    // has the exact same induced radius-r ball in both graphs, so its parent
    // decision stands verbatim. A BFS from the endpoints measures the same
    // distances in both graphs: every edited edge (a new vertex's included)
    // joins two sources, and a multi-source BFS never uses such an edge.
    // One SolverSpec::decide call on the child re-decides every other
    // ("dirty") vertex, and the splice merges the sorted lists of clean and
    // dirty picks. `scratch` is the calling worker's. nullopt = fall back to
    // a full re-solve (results identical either way).
    auto incremental_solve = [&](const Graph& g, const PatchLineage& lin,
                                 graph::BfsScratch& scratch) -> std::optional<Response> {
      const CacheKey parent_key{lin.parent_hash, std::string(solver), options_key,
                                over.cache_namespace};
      const std::shared_ptr<const CachedResponse> parent = cache_.lookup(parent_key);
      if (!parent) return std::nullopt;
      const graph::Vertex pn = lin.parent->num_vertices();

      // dirty = ball(eps, r) ∪ the new vertices, for the edited endpoints eps.
      std::vector<graph::Vertex> eps;
      for (const auto* edits : {&lin.added, &lin.removed}) {
        for (const graph::Edge& e : *edits) eps.insert(eps.end(), {e.u, e.v});
      }
      graph::mark_ball(g, eps, spec.locality_radius, scratch);
      std::vector<graph::Vertex> dirty(scratch.visited().begin(), scratch.visited().end());
      for (graph::Vertex v = pn; v < g.num_vertices(); ++v) dirty.push_back(v);
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

      const Response& base = parent->response;
      std::vector<graph::Vertex> clean;
      std::set_difference(base.solution.begin(), base.solution.end(), dirty.begin(), dirty.end(),
                          std::back_inserter(clean));
      const std::vector<graph::Vertex> fresh =
          spec.decide(SolveContext{g, resolved, false, intra_threads}, dirty);
      std::vector<graph::Vertex> solution;
      solution.reserve(clean.size() + fresh.size());
      std::merge(clean.begin(), clean.end(), fresh.begin(), fresh.end(),
                 std::back_inserter(solution));
      // An invalid parent answer may hide its fault anywhere: check it all.
      const bool valid =
          base.valid ? valid_around(g, spec.problem, solution, dirty, scratch)
                     : (spec.problem == Problem::Mvc ? solve::is_vertex_cover(g, solution)
                                                     : solve::is_dominating_set(g, solution));
      incr_dirty.fetch_add(dirty.size(), std::memory_order_relaxed);
      // solver/problem/diag carry over: every decomposable solver's
      // diagnostics are solution-independent constants (its round count),
      // and traffic/ratio are excluded above.
      return Response{.solver = base.solver,
                      .problem = base.problem,
                      .solution = std::move(solution),
                      .valid = valid,
                      .ratio = base.ratio,
                      .ratio_measured = base.ratio_measured,
                      .diag = base.diag};
    };

    auto run_one = [&](std::size_t i, graph::BfsScratch& scratch) {
      CacheKey key;
      if (use_cache) {
        key = CacheKey{hash_of(i), std::string(solver), options_key, over.cache_namespace};
        if (std::shared_ptr<const CachedResponse> hit = cache_.lookup(key)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          out[i] = std::move(hit);
          return;
        }
      }
      const Graph& g = graph_at(i);
      if (const PatchLineage* lin =
              lineage_ok && i < lineages.size() ? lineages[i].get() : nullptr) {
        if (std::optional<Response> spliced =
                spec.decide ? incremental_solve(g, *lin, scratch) : std::nullopt) {
          incr_solves.fetch_add(1, std::memory_order_relaxed);
          misses.fetch_add(1, std::memory_order_relaxed);
          if (cache_.insert(key, *spliced)) {
            evictions.fetch_add(1, std::memory_order_relaxed);
          }
          out[i] = std::make_shared<const CachedResponse>(*std::move(spliced));
          return;
        }
        incr_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
      Response fresh = registry_.run_resolved(solver, g, resolved, req.measure_traffic,
                                              req.measure_ratio, intra_threads);
      // The miss is counted only now that the compute succeeded (a throwing
      // solve never reaches here), keeping hits + misses equal to completed
      // work; ResponseCache::insert counts its own lifetime miss the same way.
      if (use_cache) {
        misses.fetch_add(1, std::memory_order_relaxed);
        if (cache_.insert(key, fresh)) {
          evictions.fetch_add(1, std::memory_order_relaxed);
        }
      }
      out[i] = std::make_shared<const CachedResponse>(std::move(fresh));
    };

    auto worker = [&](int w) {
      graph::BfsScratch scratch;  // the incremental path's, reused across shards
      while (!failed.load(std::memory_order_relaxed)) {
        const int shard = next_shard.fetch_add(1, std::memory_order_relaxed);
        if (shard >= shards) break;
        if (shard % workers != w) stolen.fetch_add(1, std::memory_order_relaxed);
        const std::size_t begin = static_cast<std::size_t>(shard) * shard_size;
        const std::size_t end = std::min(begin + shard_size, count);
        for (std::size_t i = std::max(begin, prefix); i != end; ++i) {
          try {
            run_one(i, scratch);
          } catch (...) {
            common::MutexLock lock(error_mu);
            if (!first_error || i < error_index) {
              first_error = std::current_exception();
              error_index = i;
            }
            failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
      }
    };

    // One worker per index, at most one per shard left; worker 0 runs on the
    // calling thread, so a threads=1 batch never spawns and a saturated
    // process still makes progress on the caller.
    if (prefix < count) {
      const int forked = std::min(workers, shards - first_shard);
      common::parallel_for(forked, forked, [&](int begin, int end) {
        for (int w = begin; w < end; ++w) worker(w);
      });
    }

    if (first_error) std::rethrow_exception(first_error);
    solves_served_.fetch_add(count, std::memory_order_relaxed);
  }

  if (diag) {
    diag->threads = workers;
    diag->intra_threads = intra_threads;
    diag->shards = shards;
    diag->stolen_shards = stolen.load();
    diag->cache_hits = hits.load();
    diag->cache_misses = misses.load();
    diag->cache_evictions = evictions.load();
    diag->incremental_solves = incr_solves.load();
    diag->incremental_fallbacks = incr_fallbacks.load();
    diag->incremental_dirty = incr_dirty.load();
  }
  return out;
}

}  // namespace lmds::api
