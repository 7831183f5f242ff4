// Tests for the batch-serving layer: graph_hash fingerprints, the LRU
// response cache (hit identity, eviction, counters, crash-safe snapshot
// files, shared entries and their byte memo), the sharded parallel executor
// (determinism across thread counts, error propagation, concurrent callers,
// the cache-hit prefix that keeps all-hit batches off the fork, graphs read
// through the caller's accessor only for the slots that need them) and the
// typed ParamValue widening of SolverSpec parameters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.hpp"
#include "api/graph_store.hpp"
#include "api/registry.hpp"
#include "ding/generators.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"

namespace lmds::api {
namespace {

using graph::Graph;
using graph::Vertex;

// Same families as test_api's suite, slightly larger so parallel runs have
// real work per graph.
std::vector<Graph> generator_suite() {
  std::mt19937_64 rng(20250727);
  std::vector<Graph> gs;
  gs.push_back(graph::gen::path(12));
  gs.push_back(graph::gen::cycle(9));
  gs.push_back(graph::gen::star(7));
  gs.push_back(graph::gen::grid(4, 5));
  gs.push_back(graph::gen::spider(4, 3));
  gs.push_back(graph::gen::theta_chain(4, 4));
  gs.push_back(graph::gen::theta_chain(7, 3));
  gs.push_back(graph::gen::caterpillar(8, 2));
  gs.push_back(graph::gen::clique_with_pendants(9));
  gs.push_back(graph::gen::random_tree(30, rng));
  ding::CactusConfig cc;
  cc.pieces = 6;
  cc.t = 5;
  gs.push_back(ding::random_cactus_of_structures(cc, rng));
  return gs;
}

std::span<const Graph> span_of(const std::vector<Graph>& gs) {
  return {gs.data(), gs.size()};
}

// ---------------------------------------------------------------------------
// graph_hash

TEST(GraphHash, EqualGraphsHashEqual) {
  const Graph a = graph::gen::theta_chain(5, 3);
  const Graph b = graph::gen::theta_chain(5, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(graph::graph_hash(a), graph::graph_hash(b));
}

TEST(GraphHash, DistinctStructuresHashDistinct) {
  // Pairwise-distinct small graphs; a collision among these would be a bug
  // in the mixer, not bad luck.
  std::vector<Graph> gs = generator_suite();
  gs.push_back(Graph());
  gs.push_back(graph::gen::path(1));
  std::vector<std::uint64_t> hashes;
  for (const Graph& g : gs) hashes.push_back(graph::graph_hash(g));
  for (std::size_t i = 0; i < gs.size(); ++i) {
    for (std::size_t j = i + 1; j < gs.size(); ++j) {
      if (gs[i] == gs[j]) continue;
      EXPECT_NE(hashes[i], hashes[j]) << "collision between graphs " << i << " and " << j;
    }
  }
}

TEST(GraphHash, SensitiveToSingleEdge) {
  const Graph path = graph::gen::path(10);
  const Graph cycle = graph::gen::cycle(10);  // path + closing edge
  EXPECT_NE(graph::graph_hash(path), graph::graph_hash(cycle));
}

TEST(GraphHash, IsTheCountTermPlusOneTermPerEdge) {
  const Graph g({{1, 2}, {0}, {0, 3}, {2}});  // edges {0,1}, {0,2}, {2,3}
  EXPECT_EQ(graph::graph_hash(g), graph::vertex_count_term(4) + graph::edge_term(0, 1) +
                                      graph::edge_term(0, 2) + graph::edge_term(2, 3));
  EXPECT_EQ(graph::graph_hash(Graph()), graph::vertex_count_term(0));
  EXPECT_NE(graph::edge_term(0, 1), graph::vertex_count_term(1));
}

TEST(GraphHash, VertexCountIsPartOfTheAddress) {
  // The same edge set plus isolated vertices is a different graph.
  const Graph path = graph::gen::path(3);
  const Graph padded({{1}, {0, 2}, {1}, {}, {}});
  EXPECT_NE(graph::graph_hash(path), graph::graph_hash(padded));
  EXPECT_NE(graph::graph_hash(padded), graph::graph_hash(Graph({{1}, {0, 2}, {1}, {}})));
  // The empty graphs at n = 0, 1 and 2 differ pairwise.
  const std::uint64_t empty[] = {graph::graph_hash(Graph()),
                                 graph::graph_hash(Graph(std::vector<std::vector<Vertex>>(1))),
                                 graph::graph_hash(Graph(std::vector<std::vector<Vertex>>(2)))};
  EXPECT_NE(empty[0], empty[1]);
  EXPECT_NE(empty[0], empty[2]);
  EXPECT_NE(empty[1], empty[2]);
}

TEST(GraphHash, NotARelabellingInvariant) {
  // The path 0-1-2 and the path 1-0-2 are isomorphic but not equal.
  const Graph a({{1}, {0, 2}, {1}});
  const Graph b({{1, 2}, {0}, {0}});
  EXPECT_NE(a, b);
  EXPECT_NE(graph::graph_hash(a), graph::graph_hash(b));
}

// ---------------------------------------------------------------------------
// ResponseCache unit behaviour

CacheKey key_of(int tag) {
  return CacheKey{static_cast<std::uint64_t>(tag), "solver", "opts", ""};
}

CacheKey key_in_ns(int tag, std::string ns) {
  return CacheKey{static_cast<std::uint64_t>(tag), "solver", "opts", std::move(ns)};
}

Response response_of(int tag) {
  Response r;
  r.solver = "solver";
  r.solution = {static_cast<Vertex>(tag)};
  r.valid = true;
  return r;
}

TEST(ResponseCache, HitReturnsStoredResponseAndPromotes) {
  ResponseCache cache(2);
  cache.insert(key_of(1), response_of(1));
  cache.insert(key_of(2), response_of(2));

  const auto hit = cache.lookup(key_of(1));  // promotes 1 to MRU
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->response, response_of(1));

  cache.insert(key_of(3), response_of(3));  // evicts LRU = 2, not 1
  EXPECT_TRUE(cache.lookup(key_of(1)) != nullptr);
  EXPECT_FALSE(cache.lookup(key_of(2)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(3)) != nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.hits, 3u);
  // Misses are counted at insert (one per completed computation), not at
  // lookup: three inserts happened, and the failed lookup of key 2 counts
  // nothing because no computation completed it.
  EXPECT_EQ(stats.misses, 3u);
}

TEST(ResponseCache, EvictsAtCapacity) {
  ResponseCache cache(3);
  for (int tag = 0; tag < 10; ++tag) cache.insert(key_of(tag), response_of(tag));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 3u);
  EXPECT_EQ(stats.evictions, 7u);
  // The three most recently inserted survive.
  EXPECT_TRUE(cache.lookup(key_of(9)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(8)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(7)) != nullptr);
  EXPECT_FALSE(cache.lookup(key_of(6)) != nullptr);
}

TEST(ResponseCache, ZeroCapacityIsDisabled) {
  ResponseCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_of(1), response_of(1));
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled lookups do not count
}

TEST(ResponseCache, CanonicalOptionsSpellOutResolvedParams) {
  Options params;
  params["t"] = 5;
  params["twin_removal"] = true;
  params["alpha"] = 0.25;
  EXPECT_EQ(canonical_options(params, false, true),
            "alpha=0.25;t=5;twin_removal=true;|traffic=0;ratio=1");
}

TEST(ResponseCache, CanonicalOptionsEscapeStructuralCharacters) {
  // Without escaping, the parameter *name* "a=1;b" with value 2 would
  // serialize exactly like the two-parameter map {a: 1, b: 2} — an aliased
  // cache key. Escaping keeps the grammar unambiguous before the snapshot
  // format freezes the key encoding (future string ParamValues included).
  Options crafted;
  crafted["a=1;b"] = 2;
  Options plain;
  plain["a"] = 1;
  plain["b"] = 2;
  EXPECT_EQ(canonical_options(plain, false, false), "a=1;b=2;|traffic=0;ratio=0");
  EXPECT_EQ(canonical_options(crafted, false, false), "a\\=1\\;b=2;|traffic=0;ratio=0");
  EXPECT_NE(canonical_options(crafted, false, false), canonical_options(plain, false, false));

  Options backslash;
  backslash["x\\y|z"] = 1;
  EXPECT_EQ(canonical_options(backslash, false, false),
            "x\\\\y\\|z=1;|traffic=0;ratio=0");
}

// ---------------------------------------------------------------------------
// Snapshot persistence (serialize/deserialize); the cross-restart warm-hit
// story is covered end-to-end in tests/test_server.cpp.

TEST(ResponseCache, SnapshotRoundTripPreservesEntriesAndRecency) {
  ResponseCache cache(3);
  for (int tag = 1; tag <= 3; ++tag) cache.insert(key_of(tag), response_of(tag));
  (void)cache.lookup(key_of(1));  // recency now: 1 (MRU), 3, 2 (LRU)

  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  cache.serialize(snapshot);

  ResponseCache restored(3);
  restored.deserialize(snapshot);
  EXPECT_EQ(restored.stats().size, 3u);
  for (int tag = 1; tag <= 3; ++tag) {
    const auto hit = restored.lookup(key_of(tag));
    ASSERT_TRUE(hit != nullptr) << "tag " << tag;
    EXPECT_EQ(hit->response, response_of(tag));
  }
  // Recency survived the round trip: inserting one new entry must evict the
  // snapshot's LRU entry (2), not 1 or 3. Rebuild to avoid the lookups above.
  ResponseCache again(3);
  snapshot.clear();
  snapshot.seekg(0);
  again.deserialize(snapshot);
  again.insert(key_of(99), response_of(99));
  EXPECT_TRUE(again.lookup(key_of(1)) != nullptr);
  EXPECT_TRUE(again.lookup(key_of(3)) != nullptr);
  EXPECT_FALSE(again.lookup(key_of(2)) != nullptr);
}

TEST(ResponseCache, SnapshotPreservesFullResponsePayload) {
  // Exercise every serialized field, including diagnostics and ratio.
  Response r;
  r.solver = "algorithm1";
  r.problem = Problem::Mds;
  r.solution = {1, 4, 7};
  r.valid = true;
  r.ratio = {3, 2, true, 1.5};
  r.ratio_measured = true;
  r.diag.rounds = 9;
  r.diag.traffic = {9, 1234, 56789};
  r.diag.traffic_measured = true;
  r.diag.twin_classes = 4;
  r.diag.one_cuts = {2, 3};
  r.diag.two_cut_vertices = {5};
  r.diag.brute_forced = {6, 7, 8};
  r.diag.residual_components = 2;
  r.diag.max_residual_diameter = 11;

  ResponseCache cache(4);
  cache.insert(key_of(42), r);
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  cache.serialize(snapshot);
  ResponseCache restored(4);
  restored.deserialize(snapshot);
  const auto hit = restored.lookup(key_of(42));
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->response, r);  // field-wise, the determinism operator
}

TEST(ResponseCache, SnapshotClampsToCapacityKeepingMostRecent) {
  ResponseCache big(8);
  for (int tag = 0; tag < 8; ++tag) big.insert(key_of(tag), response_of(tag));
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  big.serialize(snapshot);

  ResponseCache small(3);
  small.deserialize(snapshot);
  const CacheStats stats = small.stats();
  EXPECT_EQ(stats.size, 3u);
  EXPECT_EQ(stats.evictions, 0u);  // clamping a snapshot is not an eviction
  EXPECT_TRUE(small.lookup(key_of(7)) != nullptr);
  EXPECT_TRUE(small.lookup(key_of(6)) != nullptr);
  EXPECT_TRUE(small.lookup(key_of(5)) != nullptr);
  EXPECT_FALSE(small.lookup(key_of(4)) != nullptr);
}

TEST(ResponseCache, RejectsCorruptAndTruncatedSnapshots) {
  ResponseCache cache(4);
  for (int tag = 0; tag < 4; ++tag) cache.insert(key_of(tag), response_of(tag));
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  cache.serialize(snapshot);
  const std::string bytes = snapshot.str();

  ResponseCache target(4);
  target.insert(key_of(100), response_of(100));

  std::stringstream bad_magic(std::string("XXXXXXXX") + bytes.substr(8),
                              std::ios::in | std::ios::binary);
  EXPECT_THROW(target.deserialize(bad_magic), std::runtime_error);

  for (const std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{20},
                                bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut), std::ios::in | std::ios::binary);
    EXPECT_THROW(target.deserialize(truncated), std::runtime_error) << "cut at " << cut;
  }

  // Every failed load left the target untouched.
  EXPECT_EQ(target.stats().size, 1u);
  EXPECT_TRUE(target.lookup(key_of(100)) != nullptr);
}

TEST(ResponseCache, FailedSaveFileKeepsThePreviousSnapshot) {
  namespace fs = std::filesystem;
  const std::string path = (fs::path(testing::TempDir()) / "lmds_cache_save.bin").string();
  const fs::path tmp = path + ".tmp";
  fs::remove_all(tmp);

  ResponseCache cache(4);
  cache.insert(key_of(1), response_of(1));
  cache.save_file(path);
  EXPECT_FALSE(fs::exists(tmp)) << "a successful save leaves no temp file behind";

  // A directory squatting on <path>.tmp makes the next save fail before the
  // snapshot at <path> is touched.
  cache.insert(key_of(2), response_of(2));
  fs::create_directory(tmp);
  EXPECT_THROW(cache.save_file(path), std::runtime_error);
  fs::remove(tmp);

  ResponseCache restored(4);
  restored.load_file(path);
  EXPECT_EQ(restored.stats().size, 1u);
  EXPECT_TRUE(restored.lookup(key_of(1)) != nullptr);
  EXPECT_FALSE(restored.lookup(key_of(2)) != nullptr);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Parallel executor: determinism, caching, diagnostics

TEST(BatchExecutor, ThreadCountsProduceIdenticalResponses) {
  const auto graphs = generator_suite();
  const auto& reg = Registry::instance();

  for (const char* solver : {"algorithm1", "theorem44", "greedy"}) {
    Request req;
    req.measure_ratio = true;
    const std::vector<Response> sequential = reg.run_batch(solver, span_of(graphs), req);

    for (const int threads : {1, 2, 8}) {
      BatchOptions opts;
      opts.threads = threads;
      opts.shard_size = 2;
      BatchExecutor executor(opts);
      BatchDiagnostics diag;
      const auto parallel = executor.run_batch(solver, span_of(graphs), req, &diag);
      ASSERT_EQ(parallel.size(), graphs.size());
      EXPECT_EQ(parallel, sequential) << solver << " diverged at threads=" << threads;
      EXPECT_EQ(diag.shards, static_cast<int>((graphs.size() + 1) / 2));
      EXPECT_LE(diag.threads, threads == 1 ? 1 : threads);
    }
  }
}

TEST(BatchExecutor, LocalModeStaysDeterministicInParallel) {
  const auto graphs = generator_suite();
  Request req;
  req.measure_traffic = true;  // exercise the simulator path concurrently
  const auto& reg = Registry::instance();
  const auto sequential = reg.run_batch("theorem44", span_of(graphs), req);
  BatchOptions opts;
  opts.threads = 8;
  opts.shard_size = 1;
  BatchExecutor executor(opts);
  EXPECT_EQ(executor.run_batch("theorem44", span_of(graphs), req), sequential);
}

TEST(BatchExecutor, CacheHitIsBitIdentical) {
  const auto graphs = generator_suite();
  BatchOptions opts;
  opts.threads = 2;
  opts.shard_size = 2;
  opts.cache_capacity = graphs.size();
  BatchExecutor executor(opts);

  Request req;
  req.measure_ratio = true;
  BatchDiagnostics cold;
  const auto first = executor.run_batch("algorithm1", span_of(graphs), req, &cold);
  BatchDiagnostics warm;
  const auto second = executor.run_batch("algorithm1", span_of(graphs), req, &warm);

  EXPECT_EQ(second, first);  // bit-identical Responses, field by field
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, graphs.size());
  EXPECT_EQ(warm.cache_hits, graphs.size());
  EXPECT_EQ(warm.cache_misses, 0u);
}

TEST(BatchExecutor, CacheKeyCanonicalizationMergesSpelledOutDefaults) {
  const auto graphs = generator_suite();
  BatchOptions opts;
  opts.cache_capacity = graphs.size();
  BatchExecutor executor(opts);

  Request defaults;  // t/radius1/radius2/twin_removal all defaulted
  (void)executor.run_batch("algorithm1", span_of(graphs), defaults);

  Request spelled;  // the same values, spelled out (ints coerced to bool)
  spelled.options["t"] = 5;
  spelled.options["radius1"] = 4;
  spelled.options["radius2"] = 4;
  spelled.options["twin_removal"] = 1;
  BatchDiagnostics diag;
  (void)executor.run_batch("algorithm1", span_of(graphs), spelled, &diag);
  EXPECT_EQ(diag.cache_hits, graphs.size()) << "canonicalized keys should collide";
}

TEST(BatchExecutor, DifferentOptionsDoNotShareCacheLines) {
  const auto graphs = generator_suite();
  BatchOptions opts;
  opts.cache_capacity = 4 * graphs.size();
  BatchExecutor executor(opts);

  Request req;
  (void)executor.run_batch("algorithm1", span_of(graphs), req);
  Request other;
  other.options["radius1"] = 2;
  BatchDiagnostics diag;
  (void)executor.run_batch("algorithm1", span_of(graphs), other, &diag);
  EXPECT_EQ(diag.cache_hits, 0u);
  // Same solver+graph but different flags must miss too.
  Request ratio = req;
  ratio.measure_ratio = true;
  BatchDiagnostics flag_diag;
  (void)executor.run_batch("algorithm1", span_of(graphs), ratio, &flag_diag);
  EXPECT_EQ(flag_diag.cache_hits, 0u);
}

TEST(BatchExecutor, EvictionAtCapacityStillCorrect) {
  const auto graphs = generator_suite();
  BatchOptions opts;
  opts.cache_capacity = 2;  // far below the batch size: constant churn
  BatchExecutor executor(opts);

  Request req;
  const auto expected = Registry::instance().run_batch("theorem44", span_of(graphs), req);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(executor.run_batch("theorem44", span_of(graphs), req), expected);
  }
  const CacheStats stats = executor.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(BatchExecutor, ConcurrentCallersAreSafe) {
  const auto graphs = generator_suite();
  BatchOptions opts;
  opts.threads = 2;
  opts.shard_size = 1;
  opts.cache_capacity = 2 * graphs.size();
  BatchExecutor executor(opts);  // one shared executor, one shared cache

  Request req;
  const auto expected = Registry::instance().run_batch("theorem44", span_of(graphs), req);

  constexpr int kCallers = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        if (executor.run_batch("theorem44", span_of(graphs), req) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = executor.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kCallers * 3 * graphs.size());
}

TEST(BatchExecutor, SolverExceptionPropagatesAndAbortsBatch) {
  // Graphs 2 and 3 throw; graph 0 stalls first, so a sibling worker could
  // fail on graph 3 before anyone reached graph 2. The rethrown error must
  // still be graph 2's: the lowest failing index, for every thread count.
  Registry reg;
  reg.add({.name = "boom", .problem = Problem::Mds, .summary = "throws on n = 6, 7", .params = {}},
          [](const SolveContext& ctx) {
            const int n = ctx.graph.num_vertices();
            if (n == 4) std::this_thread::sleep_for(std::chrono::milliseconds(50));
            if (n == 6 || n == 7) throw std::runtime_error("boom at n=" + std::to_string(n));
            SolverOutput out;
            for (Vertex v = 0; v < n; ++v) out.solution.push_back(v);
            return out;
          });

  std::vector<Graph> graphs;
  for (int i = 0; i < 6; ++i) graphs.push_back(graph::gen::path(4 + i));

  for (const int threads : {1, 2, 4, 8}) {
    BatchOptions opts;
    opts.threads = threads;
    opts.shard_size = 1;
    BatchExecutor executor(opts, reg);
    try {
      (void)executor.run_batch("boom", span_of(graphs), Request{});
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at n=6") << "threads=" << threads;
    }
  }
}

TEST(BatchExecutor, ThrowingSolveDoesNotCountAMiss) {
  // Regression: the miss used to be counted between the failed lookup and
  // the compute, so a throwing solve left hits + misses ahead of the work
  // that actually completed. Misses now track completed compute+insert.
  Registry reg;
  reg.add({.name = "boom", .problem = Problem::Mds, .summary = "throws on cycles", .params = {}},
          [](const SolveContext& ctx) {
            if (ctx.graph.num_edges() == ctx.graph.num_vertices()) {
              throw std::runtime_error("boom");
            }
            SolverOutput out;
            for (Vertex v = 0; v < ctx.graph.num_vertices(); ++v) out.solution.push_back(v);
            return out;
          });

  std::vector<Graph> graphs;
  for (int i = 0; i < 3; ++i) graphs.push_back(graph::gen::path(4 + i));
  graphs.push_back(graph::gen::cycle(5));  // poisoned: solve throws here
  graphs.push_back(graph::gen::path(9));

  BatchOptions opts;
  opts.threads = 1;  // deterministic progress: graphs run in index order
  opts.shard_size = 1;
  opts.cache_capacity = 16;
  BatchExecutor executor(opts, reg);
  EXPECT_THROW((void)executor.run_batch("boom", span_of(graphs), Request{}),
               std::runtime_error);

  const CacheStats stats = executor.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u) << "only the three completed graphs may count";
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(stats.size))
      << "every counted miss corresponds to an inserted Response";
}

TEST(BatchExecutor, ValidatesRequestBeforeSpawning) {
  const auto graphs = generator_suite();
  BatchOptions opts;
  opts.threads = 4;
  BatchExecutor executor(opts);
  Request bad;
  bad.options["radius9"] = 1;
  EXPECT_THROW((void)executor.run_batch("algorithm1", span_of(graphs), bad), RequestError);
  EXPECT_THROW((void)executor.run_batch("no-such", span_of(graphs), Request{}), RequestError);
}

TEST(BatchExecutor, RejectsNonPositiveShardSize) {
  BatchOptions opts;
  opts.shard_size = 0;
  EXPECT_THROW(BatchExecutor{opts}, std::invalid_argument);
}

TEST(BatchExecutor, EmptyBatchReturnsEmpty) {
  BatchOptions opts;
  opts.threads = 4;
  BatchExecutor executor(opts);
  BatchDiagnostics diag;
  const auto out = executor.run_batch("greedy", {}, Request{}, &diag);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(diag.shards, 0);
}

// ---------------------------------------------------------------------------
// The hit prefix (an all-hit batch never forks) and shared cache entries

// Eight distinct graphs: one per shard at shard_size 1.
std::vector<Graph> eight_graphs() {
  std::vector<Graph> gs;
  for (int n = 5; n < 13; ++n) gs.push_back(graph::gen::cycle(n));
  return gs;
}

TEST(BatchExecutor, AllHitBatchKeepsItsSizingAndStealsNothing) {
  const auto graphs = eight_graphs();
  const Request req;
  const auto reference = BatchExecutor({.threads = 1}).run_batch("greedy", span_of(graphs), req);
  BatchExecutor executor({.threads = 4, .shard_size = 1, .cache_capacity = 64});
  (void)executor.run_batch("greedy", span_of(graphs), req);  // fill
  BatchDiagnostics warm;
  EXPECT_EQ(executor.run_batch("greedy", span_of(graphs), req, &warm), reference);
  EXPECT_EQ(warm.threads, 4);
  EXPECT_EQ(warm.shards, 8);
  EXPECT_EQ(warm.stolen_shards, 0u);
  EXPECT_EQ(warm.cache_hits, 8u);
  EXPECT_EQ(warm.cache_misses, 0u);
}

TEST(BatchExecutor, MissAfterTheHitPrefixMatchesOneThread) {
  const auto graphs = eight_graphs();
  const Request req;
  const auto reference = BatchExecutor({.threads = 1}).run_batch("greedy", span_of(graphs), req);
  // Shard size 3 puts the middle and last misses inside a shard the prefix
  // already entered.
  for (const int shard_size : {1, 3}) {
    for (const std::size_t miss : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
      BatchExecutor executor({.threads = 4, .shard_size = shard_size, .cache_capacity = 64});
      std::vector<Graph> others;
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        if (i != miss) others.push_back(graphs[i]);
      }
      (void)executor.run_batch("greedy", span_of(others), req);  // warm all but `miss`
      BatchDiagnostics diag;
      EXPECT_EQ(executor.run_batch("greedy", span_of(graphs), req, &diag), reference)
          << "shard_size " << shard_size << ", miss at " << miss;
      EXPECT_EQ(diag.cache_hits, 7u) << "shard_size " << shard_size << ", miss at " << miss;
      EXPECT_EQ(diag.cache_misses, 1u) << "shard_size " << shard_size << ", miss at " << miss;
    }
  }
}

TEST(BatchExecutor, RepeatedGraphInAColdBatchHitsItsFirstOccurrence) {
  const std::vector<Graph> twice = {graph::gen::grid(3, 4), graph::gen::grid(3, 4)};
  BatchExecutor executor({.threads = 1, .shard_size = 4, .cache_capacity = 8});
  BatchDiagnostics diag;
  const auto out = executor.run_batch("greedy", span_of(twice), Request{}, &diag);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(diag.cache_misses, 1u);
  EXPECT_EQ(diag.cache_hits, 1u);
}

TEST(BatchExecutor, HitsShareTheCacheEntryAndMissesGetAPrivateOne) {
  const Graph g = graph::gen::grid(4, 4);
  const BatchExecutor::GraphAccessor graphs = [&](std::size_t) -> const Graph& { return g; };
  const Request req;
  BatchExecutor executor({.threads = 1, .cache_capacity = 8});
  const CacheKey key{graph::graph_hash(g), "greedy",
                     canonical_options(Registry::instance().resolve_options("greedy", req),
                                       false, false),
                     ""};

  const auto cold = executor.run_batch_shared("greedy", 1, graphs, req, BatchOverrides{});
  const auto cached = executor.cache().lookup(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_NE(cold[0], cached);                       // the miss answers from its own entry,
  EXPECT_EQ(cold[0]->response, cached->response);  // holding the Response the cache copied
  const auto warm = executor.run_batch_shared("greedy", 1, graphs, req, BatchOverrides{});
  EXPECT_EQ(warm[0], cached);  // a hit hands out the cache's entry itself

  BatchOverrides bypass;
  bypass.bypass_cache = true;
  const auto fresh = executor.run_batch_shared("greedy", 1, graphs, req, bypass);
  EXPECT_NE(fresh[0], cached);
  EXPECT_EQ(fresh[0]->response, cached->response);
}

// ---------------------------------------------------------------------------
// run_batch_shared reads a slot's graph only when the slot needs it

/// A GraphAccessor over `graphs` that counts each slot's reads; workers may
/// read distinct slots at once.
class CountingAccessor {
 public:
  explicit CountingAccessor(const std::vector<Graph>& graphs)
      : graphs_(graphs), reads_(graphs.size()) {}

  BatchExecutor::GraphAccessor accessor() {
    return [this](std::size_t i) -> const Graph& {
      reads_[i].fetch_add(1);
      return graphs_[i];
    };
  }

  std::vector<int> reads() const {
    std::vector<int> out;
    for (const std::atomic<int>& r : reads_) out.push_back(r.load());
    return out;
  }

 private:
  const std::vector<Graph>& graphs_;
  std::vector<std::atomic<int>> reads_;
};

std::vector<std::uint64_t> hashes_of(const std::vector<Graph>& gs) {
  std::vector<std::uint64_t> out;
  for (const Graph& g : gs) out.push_back(graph::graph_hash(g));
  return out;
}

/// Each entry's Response, in slot order.
std::vector<Response> responses_of(
    const std::vector<std::shared_ptr<const CachedResponse>>& entries) {
  std::vector<Response> out;
  for (const auto& entry : entries) out.push_back(entry->response);
  return out;
}

TEST(LazyGraphs, AllHitBatchReadsNoGraph) {
  const auto graphs = eight_graphs();
  const std::vector<std::uint64_t> hashes = hashes_of(graphs);
  const Request req;
  const auto reference = BatchExecutor({.threads = 1}).run_batch("greedy", span_of(graphs), req);
  for (const int threads : {1, 4}) {
    BatchExecutor executor({.threads = threads, .shard_size = 1, .cache_capacity = 64});
    (void)executor.run_batch("greedy", span_of(graphs), req);  // fill
    CountingAccessor counted(graphs);
    BatchDiagnostics diag;
    const auto entries = executor.run_batch_shared("greedy", graphs.size(), counted.accessor(),
                                                   req, BatchOverrides{}, &diag, hashes);
    EXPECT_EQ(counted.reads(), std::vector<int>(graphs.size(), 0)) << threads << " threads";
    EXPECT_EQ(diag.cache_hits, graphs.size());
    EXPECT_EQ(responses_of(entries), reference);
  }
}

TEST(LazyGraphs, MissesReadExactlyTheirSlotsOnce) {
  const auto graphs = eight_graphs();
  const std::vector<std::uint64_t> hashes = hashes_of(graphs);
  const Request req;
  const auto reference = BatchExecutor({.threads = 1}).run_batch("greedy", span_of(graphs), req);
  // Slots 1, 2, 4 and 6 are cached; 0, 3, 5 and 7 miss, one before the hit
  // prefix can start and the others inside or after shards it entered.
  const std::vector<int> want = {1, 0, 0, 1, 0, 1, 0, 1};
  for (const int threads : {1, 4}) {
    for (const int shard_size : {1, 3}) {
      BatchExecutor executor({.threads = threads, .shard_size = shard_size, .cache_capacity = 64});
      const std::vector<Graph> cached = {graphs[1], graphs[2], graphs[4], graphs[6]};
      (void)executor.run_batch("greedy", span_of(cached), req);
      CountingAccessor counted(graphs);
      BatchDiagnostics diag;
      const auto entries = executor.run_batch_shared(
          "greedy", graphs.size(), counted.accessor(), req, BatchOverrides{}, &diag, hashes);
      EXPECT_EQ(counted.reads(), want) << threads << " threads, shard size " << shard_size;
      EXPECT_EQ(diag.cache_misses, 4u);
      EXPECT_EQ(diag.cache_hits, 4u);
      EXPECT_EQ(responses_of(entries), reference);
    }
  }
}

TEST(LazyGraphs, ASlotWithoutAHashIsReadOnce) {
  const auto graphs = eight_graphs();
  std::vector<std::uint64_t> hashes = hashes_of(graphs);
  hashes[2] = 0;  // 0 = unknown: the executor hashes the graph itself
  hashes[5] = 0;
  const Request req;
  const auto reference = BatchExecutor({.threads = 1}).run_batch("greedy", span_of(graphs), req);
  BatchExecutor executor({.threads = 4, .shard_size = 1, .cache_capacity = 64});
  // Cold, every slot misses, and an unhashed one is hashed and solved from
  // one read.
  CountingAccessor cold(graphs);
  EXPECT_EQ(responses_of(executor.run_batch_shared("greedy", graphs.size(), cold.accessor(), req,
                                                   BatchOverrides{}, nullptr, hashes)),
            reference);
  EXPECT_EQ(cold.reads(), std::vector<int>(graphs.size(), 1));
  // Warm, only the unhashed slots are read, once each, to key them.
  CountingAccessor warm(graphs);
  BatchDiagnostics diag;
  EXPECT_EQ(responses_of(executor.run_batch_shared("greedy", graphs.size(), warm.accessor(), req,
                                                   BatchOverrides{}, &diag, hashes)),
            reference);
  EXPECT_EQ(warm.reads(), (std::vector<int>{0, 0, 1, 0, 0, 1, 0, 0}));
  EXPECT_EQ(diag.cache_hits, graphs.size());
  // With no hashes at all, every slot is read once.
  CountingAccessor unhashed(graphs);
  (void)executor.run_batch_shared("greedy", graphs.size(), unhashed.accessor(), req,
                                  BatchOverrides{});
  EXPECT_EQ(unhashed.reads(), std::vector<int>(graphs.size(), 1));
}

TEST(LazyGraphs, LineageSlotsReadTheirGraphOnlyToReSolve) {
  GraphStore store(8);
  const Graph base = graph::gen::grid(6, 6);
  const GraphStore::PutResult put = store.put(base);
  graph::GraphPatch edit;
  edit.del = {{0, 1}};
  const GraphStore::PatchResult patched = store.patch(put.handle, edit);
  const std::vector<Graph> graphs = {*store.get(patched.put.handle)};
  const std::vector<std::uint64_t> hashes = {patched.put.hash};
  const std::vector<std::shared_ptr<const PatchLineage>> lineages = {
      store.lineage(patched.put.handle)};
  ASSERT_NE(lineages[0], nullptr);
  const Request req;
  const auto full = BatchExecutor({.threads = 1}).run_batch("theorem44", span_of(graphs), req);

  BatchExecutor executor({.threads = 1, .cache_capacity = 16});
  (void)executor.run_batch("theorem44", std::span<const Graph>(&base, 1), req);  // the parent's
  // The miss reads the child once and answers it incrementally.
  CountingAccessor miss(graphs);
  BatchDiagnostics diag;
  EXPECT_EQ(responses_of(executor.run_batch_shared("theorem44", 1, miss.accessor(), req,
                                                   BatchOverrides{}, &diag, hashes, lineages)),
            full);
  EXPECT_EQ(miss.reads(), std::vector<int>{1});
  EXPECT_EQ(diag.incremental_solves, 1u);
  EXPECT_EQ(diag.cache_misses, 1u);
  // The hit reads nothing.
  CountingAccessor hit(graphs);
  EXPECT_EQ(responses_of(executor.run_batch_shared("theorem44", 1, hit.accessor(), req,
                                                   BatchOverrides{}, &diag, hashes, lineages)),
            full);
  EXPECT_EQ(hit.reads(), std::vector<int>{0});
  EXPECT_EQ(diag.cache_hits, 1u);
  EXPECT_EQ(diag.incremental_solves, 0u);
}

TEST(CachedResponse, MemoEncodesOnceAndKeepsItsBytes) {
  static int calls = 0;
  const auto encode = [](std::string& out, const Response& r) {
    ++calls;
    out += "solution=" + std::to_string(r.solution.at(0));
  };
  const CachedResponse entry(response_of(5));
  const std::string_view first = entry.memo(encode);
  const std::string_view second = entry.memo(encode);
  EXPECT_EQ(first, "solution=5");
  EXPECT_EQ(second.data(), first.data());  // the stored bytes, not a re-encode
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Typed ParamValue

TEST(ParamValue, TypedAccessors) {
  const ParamValue i = 7;
  const ParamValue b = true;
  const ParamValue d = 0.5;
  EXPECT_EQ(i.type(), ParamValue::Type::Int);
  EXPECT_EQ(b.type(), ParamValue::Type::Bool);
  EXPECT_EQ(d.type(), ParamValue::Type::Double);

  EXPECT_EQ(i.as_int(), 7);
  EXPECT_TRUE(b.as_bool());
  EXPECT_DOUBLE_EQ(d.as_double(), 0.5);

  EXPECT_TRUE(i.as_bool());             // int widens to bool
  EXPECT_DOUBLE_EQ(i.as_double(), 7.0); // ...and to double
  EXPECT_THROW((void)d.as_int(), std::invalid_argument);   // never truncates
  EXPECT_THROW((void)b.as_int(), std::invalid_argument);
  EXPECT_THROW((void)d.as_bool(), std::invalid_argument);
  EXPECT_THROW((void)b.as_double(), std::invalid_argument);

  EXPECT_EQ(i.to_string(), "7");
  EXPECT_EQ(b.to_string(), "true");
  EXPECT_EQ(d.to_string(), "0.5");
  EXPECT_NE(ParamValue(1), ParamValue(true));  // typed: int 1 != bool true
}

TEST(ParamValue, RegistryCoercesAndRejectsByDeclaredType) {
  Registry reg;
  reg.add({.name = "typed",
           .problem = Problem::Mds,
           .summary = "typed parameter probe",
           .params = {{"count", 3, "int knob"},
                      {"enabled", true, "bool knob"},
                      {"alpha", 0.5, "double knob"}}},
          [](const SolveContext& ctx) {
            SolverOutput out;
            // Encode the received values so the test can observe them.
            out.diag.rounds = ctx.params.find("count")->second.as_int();
            out.diag.twin_classes = ctx.params.find("enabled")->second.as_bool() ? 1 : 0;
            out.diag.residual_components =
                static_cast<int>(ctx.params.find("alpha")->second.as_double() * 100);
            for (Vertex v = 0; v < ctx.graph.num_vertices(); ++v) out.solution.push_back(v);
            return out;
          });

  const Graph g = graph::gen::path(4);
  Request req;
  req.graph = &g;
  req.options["count"] = 9;
  req.options["enabled"] = 0;     // int -> bool coercion
  req.options["alpha"] = 1;       // int -> double promotion
  const Response res = reg.run("typed", req);
  EXPECT_EQ(res.diag.rounds, 9);
  EXPECT_EQ(res.diag.twin_classes, 0);
  EXPECT_EQ(res.diag.residual_components, 100);

  Request narrow;
  narrow.graph = &g;
  narrow.options["count"] = 2.5;  // double -> int would truncate: rejected
  EXPECT_THROW((void)reg.run("typed", narrow), RequestError);
  Request bool_for_int;
  bool_for_int.graph = &g;
  bool_for_int.options["count"] = true;
  EXPECT_THROW((void)reg.run("typed", bool_for_int), RequestError);

  // resolve_options exposes the canonical map the cache key is built from.
  Request partial;
  partial.options["enabled"] = 1;
  const Options resolved = reg.resolve_options("typed", partial);
  EXPECT_EQ(resolved.find("count")->second, ParamValue(3));
  EXPECT_EQ(resolved.find("enabled")->second, ParamValue(true));
  EXPECT_EQ(resolved.find("alpha")->second, ParamValue(0.5));
}

TEST(ParamValue, ParseParamValueAcceptsWellFormedSpellings) {
  using T = ParamValue::Type;
  EXPECT_EQ(parse_param_value("5", T::Int), ParamValue(5));
  EXPECT_EQ(parse_param_value("-3", T::Int), ParamValue(-3));
  EXPECT_EQ(parse_param_value("2147483647", T::Int), ParamValue(2147483647));
  EXPECT_EQ(parse_param_value("true", T::Bool), ParamValue(true));
  EXPECT_EQ(parse_param_value("false", T::Bool), ParamValue(false));
  // Integer spellings of a bool stay Int; the registry's coercion decides.
  EXPECT_EQ(parse_param_value("1", T::Bool), ParamValue(1));
  EXPECT_EQ(parse_param_value("0.25", T::Double), ParamValue(0.25));
  EXPECT_EQ(parse_param_value("1e-3", T::Double), ParamValue(0.001));
  EXPECT_EQ(parse_param_value("7", T::Double), ParamValue(7.0));
}

TEST(ParamValue, ParseParamValueRejectsMalformedAndOutOfRange) {
  using T = ParamValue::Type;
  // The mds_cli regression: out-of-range ints must not silently wrap.
  EXPECT_FALSE(parse_param_value("99999999999", T::Int).has_value());
  EXPECT_FALSE(parse_param_value("-99999999999", T::Int).has_value());
  EXPECT_FALSE(parse_param_value("2147483648", T::Int).has_value());
  for (const char* bad : {"", "5x", "x5", "graph.txt", "2.5", "--quiet", " 5", "5 "}) {
    EXPECT_FALSE(parse_param_value(bad, T::Int).has_value()) << "accepted: " << bad;
  }
  for (const char* bad : {"", "0.25.5", "1e", "inf", "-inf", "nan", "0,5"}) {
    EXPECT_FALSE(parse_param_value(bad, T::Double).has_value()) << "accepted: " << bad;
  }
  EXPECT_FALSE(parse_param_value("yes", T::Bool).has_value());
  EXPECT_FALSE(parse_param_value("TRUE", T::Bool).has_value());
}

// ---------------------------------------------------------------------------
// Cache namespaces (protocol v2): isolation, per-namespace counters,
// snapshot round trip and read-compat with the pre-namespace format.

TEST(ResponseCache, NamespacesNeverShareEntries) {
  ResponseCache cache(8);
  cache.insert(key_in_ns(1, ""), response_of(1));
  EXPECT_FALSE(cache.lookup(key_in_ns(1, "tenant-a")) != nullptr);
  cache.insert(key_in_ns(1, "tenant-a"), response_of(2));
  // Same (hash, solver, options) — distinct namespaces hold distinct values.
  EXPECT_EQ(cache.lookup(key_in_ns(1, ""))->response.solution, response_of(1).solution);
  EXPECT_EQ(cache.lookup(key_in_ns(1, "tenant-a"))->response.solution, response_of(2).solution);

  const auto ns = cache.namespace_stats();
  ASSERT_TRUE(ns.contains(""));
  ASSERT_TRUE(ns.contains("tenant-a"));
  EXPECT_EQ(ns.at("").size, 1u);
  EXPECT_EQ(ns.at("").hits, 1u);
  EXPECT_EQ(ns.at("tenant-a").size, 1u);
  EXPECT_EQ(ns.at("tenant-a").hits, 1u);
  EXPECT_EQ(ns.at("tenant-a").misses, 1u);
}

TEST(ResponseCache, EvictionChargedToTheNamespaceLosingTheEntry) {
  ResponseCache cache(2);  // capacity is shared across namespaces
  cache.insert(key_in_ns(1, "a"), response_of(1));
  cache.insert(key_in_ns(2, "b"), response_of(2));
  cache.insert(key_in_ns(3, "b"), response_of(3));  // evicts a's entry (LRU)
  const auto ns = cache.namespace_stats();
  EXPECT_EQ(ns.at("a").evictions, 1u);
  EXPECT_EQ(ns.at("a").size, 0u);
  EXPECT_EQ(ns.at("b").evictions, 0u);
  EXPECT_EQ(ns.at("b").size, 2u);
  EXPECT_FALSE(cache.lookup(key_in_ns(1, "a")) != nullptr);
}

TEST(ResponseCache, NamespaceCountersAreBoundedAgainstTenantChurn) {
  // Namespaces are client-supplied: a stream of never-repeating tenant tags
  // must not grow the counter map without bound. Counters of namespaces
  // holding no entries are pruned once ~1024 are tracked.
  ResponseCache cache(4);
  for (int i = 0; i < 1500; ++i) {
    cache.insert(key_in_ns(i, "tenant-" + std::to_string(i)), response_of(i));
  }
  EXPECT_LE(cache.namespace_stats().size(), 1025u);
  // The namespaces still holding entries (the 4 most recent) survived.
  EXPECT_EQ(cache.namespace_stats().at("tenant-1499").size, 1u);
}

TEST(ResponseCache, SnapshotRoundTripPreservesNamespaces) {
  ResponseCache cache(4);
  cache.insert(key_in_ns(1, ""), response_of(1));
  cache.insert(key_in_ns(1, "tenant-a"), response_of(2));
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  cache.serialize(snapshot);

  ResponseCache restored(4);
  restored.deserialize(snapshot);
  EXPECT_EQ(restored.lookup(key_in_ns(1, ""))->response.solution, response_of(1).solution);
  EXPECT_EQ(restored.lookup(key_in_ns(1, "tenant-a"))->response.solution, response_of(2).solution);
  const auto ns = restored.namespace_stats();
  EXPECT_EQ(ns.at("").size, 1u);
  EXPECT_EQ(ns.at("tenant-a").size, 1u);
}

TEST(ResponseCache, RefusesVersion1And2SnapshotsByVersion) {
  // Hand-written snapshots in the two formats keyed by the retired graph
  // hash: one entry, key (7, "solver", "opts"[, ""]), minimal Response
  // {solver, solution=[5], valid}. Version 1 is the pre-namespace format
  // (no namespace per entry); version 2 adds the namespace string.
  // Both are refused by version, and the live cache keeps its entries.
  for (const std::uint32_t version : {1u, 2u}) {
    std::string bytes;
    const auto put_u8 = [&](std::uint8_t v) { bytes.push_back(static_cast<char>(v)); };
    const auto put_u32 = [&](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    const auto put_u64 = [&](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    const auto put_str = [&](std::string_view s) {
      put_u32(static_cast<std::uint32_t>(s.size()));
      bytes.append(s);
    };
    bytes = "LMDSCACH";
    put_u32(version);
    put_u64(1);  // one entry
    put_u64(7);  // key.graph_hash
    put_str("solver");
    put_str("opts");
    if (version == 2) put_str("");  // key.ns
    // Response: solver, problem, solution, valid, ratio, ratio_measured, diag.
    put_str("solver");
    put_u8(0);   // Problem::Mds
    put_u32(1);  // |solution|
    put_u32(5);  // solution[0]
    put_u8(1);   // valid
    put_u32(0);  // ratio.solution_size
    put_u32(0);  // ratio.reference
    put_u8(0);   // ratio.exact
    put_u64(0);  // ratio.ratio (0.0 bits)
    put_u8(0);   // ratio_measured
    put_u32(static_cast<std::uint32_t>(-1));  // diag.rounds = -1
    put_u32(0);  // traffic.rounds
    put_u64(0);  // traffic.messages
    put_u64(0);  // traffic.bytes
    put_u8(0);   // traffic_measured
    put_u32(0);  // twin_classes
    put_u32(0);  // one_cuts
    put_u32(0);  // two_cut_vertices
    put_u32(0);  // brute_forced
    put_u32(0);  // residual_components
    put_u32(0);  // max_residual_diameter
    put_u64(0x4C4D44534E415053ULL);  // footer "LMDSNAPS"

    ResponseCache cache(4);
    cache.insert(key_of(3), response_of(3));
    for (const bool merge : {false, true}) {
      std::stringstream snapshot(bytes, std::ios::in | std::ios::binary);
      try {
        if (merge) {
          cache.merge(snapshot);
        } else {
          cache.deserialize(snapshot);
        }
        ADD_FAILURE() << "version " << version << " snapshot was loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("version " + std::to_string(version)),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(cache.lookup(CacheKey{7, "solver", "opts", ""}), nullptr);
      const auto kept = cache.lookup(key_of(3));
      ASSERT_NE(kept, nullptr);
      EXPECT_EQ(kept->response.solution, std::vector<Vertex>{3});
      EXPECT_EQ(cache.stats().size, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// GraphStore: content-addressed handles, refcounts, capacity eviction

TEST(GraphStore, HandlesRoundTripAndRejectMalformedSpellings) {
  EXPECT_EQ(GraphStore::handle_for(0), "g0000000000000000");
  EXPECT_EQ(GraphStore::handle_for(0xDEADBEEFULL), "g00000000deadbeef");
  for (const std::uint64_t h : {std::uint64_t{0}, std::uint64_t{0xDEADBEEF},
                                ~std::uint64_t{0}}) {
    EXPECT_EQ(GraphStore::parse_handle(GraphStore::handle_for(h)), h);
  }
  for (const char* bad : {"", "g", "x0000000000000000", "g00000000deadbee",
                          "g00000000deadbeef0", "g00000000DEADBEEF", "g00000000deadbeeg"}) {
    EXPECT_FALSE(GraphStore::parse_handle(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(GraphStore, PutIsContentAddressedAndRefcounted) {
  GraphStore store(4);
  const auto first = store.put(graph::gen::path(5));
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.vertices, 5);
  EXPECT_EQ(first.edges, 4);
  const auto second = store.put(graph::gen::path(5));  // identical content
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(second.handle, first.handle);
  EXPECT_EQ(store.stats().size, 1u);
  EXPECT_EQ(store.stats().reuses, 1u);

  const auto resolved = store.get(first.handle);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(*resolved, graph::gen::path(5));

  // Two puts need two drops before the entry is unpinned; a third drop has
  // nothing left to release.
  EXPECT_TRUE(store.drop(first.handle));
  EXPECT_EQ(store.stats().pinned, 1u);
  EXPECT_TRUE(store.drop(first.handle));
  EXPECT_EQ(store.stats().pinned, 0u);
  EXPECT_FALSE(store.drop(first.handle));
  // Unpinned but not evicted: still resolvable until capacity pressure.
  EXPECT_NE(store.get(first.handle), nullptr);
}

TEST(GraphStore, CapacityEvictsUnpinnedLruAndRefusesWhenAllPinned) {
  GraphStore store(2);
  const auto a = store.put(graph::gen::path(3));
  const auto b = store.put(graph::gen::cycle(4));
  EXPECT_THROW(store.put(graph::gen::star(5)), GraphStoreFull);  // both pinned

  EXPECT_TRUE(store.drop(a.handle));  // a unpinned -> evictable
  const auto c = store.put(graph::gen::star(5));
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(store.get(a.handle), nullptr);  // evicted
  EXPECT_NE(store.get(b.handle), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);

  // A graph a solve is still holding survives its eviction (shared_ptr).
  const auto pinned_by_solve = store.get(b.handle);
  EXPECT_TRUE(store.drop(b.handle));
  EXPECT_TRUE(store.drop(c.handle));
  (void)store.put(graph::gen::grid(2, 3));
  (void)store.put(graph::gen::grid(2, 4));
  EXPECT_EQ(*pinned_by_solve, graph::gen::cycle(4));
}

TEST(GraphStore, ZeroCapacityDisablesPuts) {
  GraphStore store(0);
  EXPECT_THROW(store.put(graph::gen::path(3)), GraphStoreFull);
}

// ---------------------------------------------------------------------------
// BatchOverrides: per-request executor knobs (protocol v2)

TEST(BatchExecutor, OverridesChangeThreadsAndShardsForOneBatchOnly) {
  const auto graphs = generator_suite();
  BatchExecutor executor({.threads = 1, .shard_size = 4, .cache_capacity = 0});
  Request req;

  BatchDiagnostics diag;
  BatchOverrides over;
  over.threads = 3;
  over.shard_size = 1;
  const auto overridden =
      executor.run_batch("greedy", span_of(graphs), req, over, &diag);
  EXPECT_EQ(diag.threads, 3);
  EXPECT_EQ(diag.shards, static_cast<int>(graphs.size()));

  BatchDiagnostics plain;
  const auto defaults = executor.run_batch("greedy", span_of(graphs), req, &plain);
  EXPECT_EQ(plain.threads, 1);  // the configured defaults are untouched
  EXPECT_EQ(overridden, defaults);  // determinism across worker counts

  BatchOverrides bad;
  bad.shard_size = 0;
  EXPECT_THROW((void)executor.run_batch("greedy", span_of(graphs), req, bad, nullptr),
               RequestError);
}

TEST(BatchExecutor, BypassCacheComputesFreshAndLeavesCacheUntouched) {
  const auto graphs = generator_suite();
  BatchExecutor executor({.threads = 2, .shard_size = 2, .cache_capacity = 64});
  Request req;
  (void)executor.run_batch("greedy", span_of(graphs), req, nullptr);  // fill
  const CacheStats before = executor.cache_stats();
  EXPECT_EQ(before.size, graphs.size());

  BatchOverrides over;
  over.bypass_cache = true;
  BatchDiagnostics diag;
  const auto fresh = executor.run_batch("greedy", span_of(graphs), req, over, &diag);
  EXPECT_EQ(diag.cache_hits, 0u);    // did not read
  EXPECT_EQ(diag.cache_misses, 0u);  // did not write
  EXPECT_EQ(executor.cache_stats(), before);  // cache bit-identical

  // And the bypass run computed the same responses a cached run returns.
  EXPECT_EQ(fresh, executor.run_batch("greedy", span_of(graphs), req, nullptr));
}

TEST(BatchExecutor, CacheNamespacesIsolateIdenticalRequests) {
  const auto graphs = generator_suite();
  BatchExecutor executor({.threads = 2, .shard_size = 2, .cache_capacity = 256});
  Request req;

  BatchOverrides tenant_a;
  tenant_a.cache_namespace = "tenant-a";
  BatchDiagnostics first;
  (void)executor.run_batch("greedy", span_of(graphs), req, tenant_a, &first);
  EXPECT_EQ(first.cache_misses, graphs.size());

  // Same graphs + solver + options in another namespace: all misses again.
  BatchOverrides tenant_b;
  tenant_b.cache_namespace = "tenant-b";
  BatchDiagnostics second;
  (void)executor.run_batch("greedy", span_of(graphs), req, tenant_b, &second);
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_EQ(second.cache_misses, graphs.size());

  // Back in the first namespace: all hits.
  BatchDiagnostics third;
  (void)executor.run_batch("greedy", span_of(graphs), req, tenant_a, &third);
  EXPECT_EQ(third.cache_hits, graphs.size());
  EXPECT_EQ(third.cache_misses, 0u);

  const auto ns = executor.cache().namespace_stats();
  EXPECT_EQ(ns.at("tenant-a").size, graphs.size());
  EXPECT_EQ(ns.at("tenant-b").size, graphs.size());
  EXPECT_EQ(ns.at("tenant-a").hits, graphs.size());
}

TEST(BatchExecutor, PointerSpanBatchesMatchValueSpans) {
  const auto graphs = generator_suite();
  std::vector<const Graph*> ptrs;
  for (const Graph& g : graphs) ptrs.push_back(&g);

  BatchExecutor executor({.threads = 2, .shard_size = 2, .cache_capacity = 0});
  Request req;
  req.measure_ratio = true;
  const auto by_value = executor.run_batch("theorem44", span_of(graphs), req, nullptr);
  const auto by_pointer = executor.run_batch(
      "theorem44", std::span<const Graph* const>{ptrs.data(), ptrs.size()}, req,
      BatchOverrides{}, nullptr);
  EXPECT_EQ(by_value, by_pointer);
}

TEST(ParamValue, BuiltinTwinRemovalIsBoolTyped) {
  const auto& spec = Registry::instance().at("algorithm1");
  EXPECT_EQ(spec.param_default("twin_removal").type(), ParamValue::Type::Bool);
  EXPECT_EQ(spec.param_default("twin_removal"), ParamValue(true));
  EXPECT_EQ(spec.param_default("t"), ParamValue(5));

  // Legacy int spelling still works through coercion.
  const Graph g = graph::gen::clique_with_pendants(8);
  Request off_int;
  off_int.graph = &g;
  off_int.options["twin_removal"] = 0;
  Request off_bool;
  off_bool.graph = &g;
  off_bool.options["twin_removal"] = false;
  const auto& reg = Registry::instance();
  EXPECT_EQ(reg.run("algorithm1", off_int), reg.run("algorithm1", off_bool));
}

}  // namespace
}  // namespace lmds::api
