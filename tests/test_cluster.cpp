// Tests for the cluster subsystem: consistent-hash ring placement, the raw
// solve-response splitter, pin leases (ownership, expiry, connection
// teardown), per-namespace quotas (store bytes + solve admission), peer
// replication (in-process and pushed over a socket), and — the heart of the
// subsystem — a routed 2-worker cluster whose mixed handle/inline batches
// come back BIT-IDENTICAL to a single server on both transports.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/graph_store.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/ops.hpp"
#include "server/http.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session.hpp"

namespace lmds::cluster {
namespace {

using graph::Graph;
using server::JsonValue;
using server::json_parse;
using server::LineReader;
using server::Server;
using server::ServerOptions;
using server::Session;

std::string graphs_json(const std::vector<Graph>& gs) {
  std::string out = "[";
  for (std::size_t i = 0; i < gs.size(); ++i) {
    if (i) out += ',';
    out += "{\"n\":" + std::to_string(gs[i].num_vertices()) + ",\"edges\":[";
    bool first = true;
    for (const auto& [u, v] : gs[i].edges()) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(u) + ',' + std::to_string(v) + ']';
    }
    out += "]}";
  }
  return out + "]";
}

std::string graph_json(const Graph& g) {
  const std::string wrapped = graphs_json({g});
  return wrapped.substr(1, wrapped.size() - 2);  // strip the array brackets
}

ServerOptions worker_options() {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.core.batch.threads = 2;
  opts.core.batch.shard_size = 1;
  opts.core.batch.cache_capacity = 64;
  return opts;
}

/// One raw line-protocol exchange over an already-connected socket; the
/// bit-identity tests need the verbatim response text, not a parse.
std::string raw_line_exchange(int fd, LineReader& reader, const std::string& line) {
  EXPECT_TRUE(server::send_all(fd, line + "\n"));
  const std::optional<std::string> response = reader.next_line(64u << 20);
  EXPECT_TRUE(response.has_value());
  return response.value_or("");
}

/// One raw HTTP exchange; returns the verbatim response body.
std::string raw_http_exchange(int fd, LineReader& reader, const std::string& method,
                              const std::string& target, const std::string& body) {
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  EXPECT_TRUE(server::send_all(fd, request));
  std::size_t content_length = 0;
  const std::optional<std::string> status = reader.next_line(1u << 16);
  EXPECT_TRUE(status.has_value());
  while (true) {
    const std::optional<std::string> header = reader.next_line(1u << 16);
    EXPECT_TRUE(header.has_value());
    if (!header || header->empty()) break;
    if (header->starts_with("Content-Length: ")) {
      content_length = std::stoul(header->substr(sizeof("Content-Length: ") - 1));
    }
  }
  const std::optional<std::string> body_out = reader.read_exact(content_length);
  EXPECT_TRUE(body_out.has_value());
  return body_out.value_or("");
}

// ---------------------------------------------------------------------------
// Hash ring

TEST(HashRing, DeterministicCoveringPlacement) {
  const std::vector<std::string> peers{"a:1", "b:2", "c:3"};
  const HashRing ring(peers, 64);
  const HashRing twin(peers, 64);
  std::set<std::size_t> seen;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint64_t hash = graph::mix64(k);
    const std::size_t owner = ring.owner_index(hash);
    ASSERT_LT(owner, peers.size());
    EXPECT_EQ(owner, twin.owner_index(hash));  // same config, same placement
    seen.insert(owner);
  }
  EXPECT_EQ(seen.size(), peers.size());  // every peer owns some keyspace
}

TEST(HashRing, PreferenceStartsAtOwnerAndCoversAllPeers) {
  const HashRing ring({"a:1", "b:2", "c:3", "d:4"}, 16);
  for (std::uint64_t k = 0; k < 256; ++k) {
    const std::vector<std::size_t> order = ring.preference(k);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), ring.owner_index(k));
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 4u);
  }
}

TEST(HashRing, RejectsEmptyAndDuplicatePeers) {
  EXPECT_THROW(HashRing({}, 4), std::invalid_argument);
  EXPECT_THROW(HashRing({"a:1", "a:1"}, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Raw response splitter (what routed bit-identity rests on)

TEST(SplitRawResponses, RoundTripsNestedBracketsAndStrings) {
  const std::string line =
      "{\"ok\":true,\"op\":\"solve\",\"responses\":["
      "{\"solver\":\"x\",\"solution\":[1,2,[3]]},"
      "{\"note\":\"tricky \\\"}]\\\" string\"},"
      "{\"empty\":{}}"
      "],\"diag\":{\"threads\":1}}";
  const auto pieces = split_raw_responses(line);
  ASSERT_TRUE(pieces.has_value());
  ASSERT_EQ(pieces->size(), 3u);
  EXPECT_EQ((*pieces)[0], "{\"solver\":\"x\",\"solution\":[1,2,[3]]}");
  EXPECT_EQ((*pieces)[1], "{\"note\":\"tricky \\\"}]\\\" string\"}");
  EXPECT_EQ((*pieces)[2], "{\"empty\":{}}");
}

TEST(SplitRawResponses, RejectsNonSolveAndTruncatedLines) {
  EXPECT_FALSE(split_raw_responses("{\"ok\":false,\"code\":\"server_busy\"}").has_value());
  EXPECT_FALSE(split_raw_responses("{\"ok\":true,\"op\":\"stats\"}").has_value());
  EXPECT_FALSE(
      split_raw_responses("{\"ok\":true,\"op\":\"solve\",\"responses\":[{\"a\":1}").has_value());
  const auto empty = split_raw_responses("{\"ok\":true,\"op\":\"solve\",\"responses\":[],...");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

// ---------------------------------------------------------------------------
// Pin leases

TEST(PinLeases, DropByAnotherSessionFailsReleaseSessionFrees) {
  api::GraphStore store(8);
  const auto put = store.put(graph::gen::path(5), /*session=*/1);
  EXPECT_FALSE(store.drop(put.handle, /*session=*/2));  // not its pin
  EXPECT_FALSE(store.drop(put.handle, api::kSharedSession));
  EXPECT_EQ(store.stats().pinned, 1u);
  EXPECT_EQ(store.release_session(1), 1u);
  EXPECT_EQ(store.stats().pinned, 0u);
  EXPECT_NE(store.get(put.handle), nullptr);  // unpinned, not erased
}

TEST(PinLeases, ExpiryReleasesPinsAndFreesCapacity) {
  api::GraphStore::StoreOptions opts;
  opts.capacity = 2;
  opts.lease_ttl = std::chrono::milliseconds(40);
  api::GraphStore store(opts);
  (void)store.put(graph::gen::path(3), /*session=*/7);
  (void)store.put(graph::gen::cycle(4), /*session=*/7);
  EXPECT_EQ(store.stats().pinned, 2u);
  // Pinned to capacity: a third put has nothing to evict.
  EXPECT_THROW((void)store.put(graph::gen::grid(2, 3), /*session=*/8),
               api::GraphStoreFull);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(store.expire_leases(), 2u);
  const api::GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.pinned, 0u);
  EXPECT_EQ(stats.lease_expiries, 2u);
  // The expired entries are now evictable — the same put succeeds.
  EXPECT_NO_THROW((void)store.put(graph::gen::grid(2, 3), /*session=*/8));
}

// Replicated graphs land through put_replica, which must sweep expired
// leases before its capacity decision like put does: a store held full
// only by expired pins takes the replica instead of throwing.
TEST(PinLeases, ReplicaInsertSweepsExpiredLeases) {
  api::GraphStore::StoreOptions opts;
  opts.capacity = 1;
  opts.lease_ttl = std::chrono::milliseconds(1);
  api::GraphStore store(opts);
  (void)store.put(graph::gen::path(3), /*session=*/7);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Graph c4 = graph::gen::cycle(4);
  EXPECT_TRUE(store.put_replica(c4, graph::graph_hash(c4)).inserted);
  EXPECT_EQ(store.stats().lease_expiries, 1u);
  EXPECT_EQ(store.stats().size, 1u);
}

TEST(PinLeases, TouchRenewsTheLease) {
  api::GraphStore::StoreOptions opts;
  opts.capacity = 2;
  opts.lease_ttl = std::chrono::milliseconds(120);
  api::GraphStore store(opts);
  const auto put = store.put(graph::gen::path(3), /*session=*/7);
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_NE(store.get(put.handle, /*session=*/7), nullptr);  // renews
  }
  EXPECT_EQ(store.expire_leases(), 0u);  // 160ms elapsed, but never idle >120
  EXPECT_EQ(store.stats().pinned, 1u);
}

// Patching through a handle touches the parent like a get does: the same
// patch, repeated, re-pins the stored child, and only the touch keeps the
// parent's own lease alive.
TEST(PinLeases, PatchRenewsTheParentLease) {
  api::GraphStore::StoreOptions opts;
  opts.capacity = 4;
  opts.lease_ttl = std::chrono::milliseconds(120);
  api::GraphStore store(opts);
  const auto put = store.put(graph::gen::path(3), /*session=*/7);
  graph::GraphPatch p;
  p.add = {{0, 2}};
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    (void)store.patch(put.handle, p, /*session=*/7);  // renews the parent
  }
  EXPECT_EQ(store.expire_leases(), 0u);  // 160ms elapsed, but never idle >120
  const api::GraphStoreStats stats = store.stats();
  EXPECT_EQ(stats.lease_expiries, 0u);
  EXPECT_EQ(stats.pinned, 2u);  // the parent and its child
}

TEST(PinLeases, SharedSessionNeverExpires) {
  api::GraphStore::StoreOptions opts;
  opts.capacity = 2;
  opts.lease_ttl = std::chrono::milliseconds(10);
  api::GraphStore store(opts);
  (void)store.put(graph::gen::path(3));  // kSharedSession
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(store.expire_leases(), 0u);
  EXPECT_EQ(store.stats().pinned, 1u);
}

// A client that puts a graph and vanishes (connection dropped without
// drop_graph) must not leave capacity pinned: the connection's Session dies
// with the socket and releases its leases.
TEST(PinLeases, DroppedConnectionReleasesLeases) {
  ServerOptions opts = worker_options();
  Server srv(opts);
  srv.bind_and_listen();
  std::thread serving([&] { srv.serve(); });

  const int fd = server::tcp_connect("127.0.0.1", srv.port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const std::string put = raw_line_exchange(
      fd, reader, "{\"op\":\"put_graph\",\"graph\":" + graph_json(graph::gen::path(6)) + "}");
  ASSERT_TRUE(json_parse(put).find("ok")->as_bool()) << put;
  EXPECT_EQ(srv.core().store().stats().pinned, 1u);

  ::close(fd);  // crash-client: no drop_graph, no clean shutdown

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (srv.core().store().stats().pinned != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv.core().store().stats().pinned, 0u);
  EXPECT_EQ(srv.core().store().stats().size, 1u);  // still resolvable, unpinned

  srv.request_stop();
  serving.join();
}

// ---------------------------------------------------------------------------
// Per-namespace quotas

TEST(Quotas, StoreBytesQuotaAnswersServerBusyNotSilentEviction) {
  ServerOptions opts = worker_options();
  // Room for exactly one small graph per namespace.
  opts.core.limits.max_namespace_store_bytes = api::GraphStore::approx_bytes(8, 8);
  Server srv(opts);
  Session session(srv.core());

  const std::string first = session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + graph_json(graph::gen::path(5)) + "}");
  ASSERT_TRUE(json_parse(first).find("ok")->as_bool()) << first;
  const std::string handle = json_parse(first).find("handle")->as_string();

  const std::string second = session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + graph_json(graph::gen::cycle(7)) + "}");
  const JsonValue rejected = json_parse(second);
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_EQ(rejected.find("code")->as_string(), "server_busy");
  EXPECT_EQ(srv.core().store().stats().quota_rejections, 1u);
  // The first graph was NOT evicted to make room.
  EXPECT_NE(srv.core().store().get(handle), nullptr);

  // drop_graph frees quota; the same put then succeeds.
  ASSERT_TRUE(json_parse(session.handle_line("{\"op\":\"drop_graph\",\"handle\":\"" + handle +
                                             "\"}"))
                  .find("ok")
                  ->as_bool());
  const std::string third = session.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + graph_json(graph::gen::cycle(7)) + "}");
  EXPECT_TRUE(json_parse(third).find("ok")->as_bool()) << third;
}

TEST(Quotas, SolveAdmissionAnswersServerBusy) {
  ServerOptions opts = worker_options();
  opts.core.limits.max_namespace_inflight = 1;
  Server srv(opts);

  // try_begin_solve/end_solve is the underlying slot discipline.
  EXPECT_TRUE(srv.core().try_begin_solve("t"));
  EXPECT_FALSE(srv.core().try_begin_solve("t"));
  EXPECT_TRUE(srv.core().try_begin_solve("other"));  // per-namespace, not global
  srv.core().end_solve("other");

  // With namespace "t"'s only slot occupied, a solve in "t" bounces with
  // server_busy — admission control, before any solver runs.
  Session session(srv.core());
  const std::string busy = session.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"namespace\":\"t\",\"graphs\":" +
      graphs_json({graph::gen::path(4)}) + "}");
  const JsonValue parsed = json_parse(busy);
  EXPECT_FALSE(parsed.find("ok")->as_bool());
  EXPECT_EQ(parsed.find("code")->as_string(), "server_busy");

  srv.core().end_solve("t");
  const std::string ok = session.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"namespace\":\"t\",\"graphs\":" +
      graphs_json({graph::gen::path(4)}) + "}");
  EXPECT_TRUE(json_parse(ok).find("ok")->as_bool()) << ok;
}

// ---------------------------------------------------------------------------
// Replication

TEST(Replication, InProcessRoundTripWarmHitsAndInstallsUnpinned) {
  ServerOptions opts = worker_options();
  Server source(opts);
  Server target(opts);
  Session src(source.core());
  Session dst(target.core());

  // Source: store a graph, solve it by handle (fills the response cache).
  const std::string put = src.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + graph_json(graph::gen::grid(3, 3)) + "}");
  const std::string handle = json_parse(put).find("handle")->as_string();
  const std::string solved = src.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}");
  ASSERT_TRUE(json_parse(solved).find("ok")->as_bool()) << solved;

  // Pull the payload and install it on the target.
  const JsonValue payload = json_parse(src.handle_line("{\"op\":\"replicate_out\"}"));
  ASSERT_TRUE(payload.find("ok")->as_bool());
  JsonValue::Object in = payload.as_object();
  in.insert_or_assign("op", JsonValue(std::string("replicate_in")));
  const JsonValue installed =
      json_parse(dst.handle_line(server::json_dump(JsonValue(std::move(in)))));
  ASSERT_TRUE(installed.find("ok")->as_bool());
  EXPECT_EQ(installed.find("installed")->as_int(), 1);
  EXPECT_TRUE(installed.find("cache_merged")->as_bool());

  // The graph arrived unpinned (owned by nobody) but resolvable...
  EXPECT_EQ(target.core().store().stats().pinned, 0u);
  EXPECT_EQ(target.core().store().stats().size, 1u);
  // ...and the merged cache answers the first solve on the target warm.
  const JsonValue warm = json_parse(dst.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}"));
  ASSERT_TRUE(warm.find("ok")->as_bool());
  EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(), 1);
}

TEST(Replication, PushOverSocketWarmsThePeer) {
  ServerOptions opts = worker_options();
  Server source(opts);
  Server peer(opts);
  peer.bind_and_listen();
  std::thread peer_serving([&] { peer.serve(); });

  Session src(source.core());
  const std::string put = src.handle_line(
      "{\"op\":\"put_graph\",\"graph\":" + graph_json(graph::gen::theta_chain(4, 3)) + "}");
  const std::string handle = json_parse(put).find("handle")->as_string();
  ASSERT_TRUE(json_parse(src.handle_line("{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" +
                                         handle + "\"]}"))
                  .find("ok")
                  ->as_bool());

  const JsonValue pushed = json_parse(src.handle_line(
      "{\"op\":\"replicate_out\",\"peer\":\"127.0.0.1:" + std::to_string(peer.port()) + "\"}"));
  ASSERT_TRUE(pushed.find("ok")->as_bool()) << "push failed";
  EXPECT_EQ(pushed.find("installed")->as_int(), 1);

  Session on_peer(peer.core());
  const JsonValue warm = json_parse(on_peer.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}"));
  ASSERT_TRUE(warm.find("ok")->as_bool());
  EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(), 1);

  peer.request_stop();
  peer_serving.join();
}

TEST(Replication, RejectsGarbagePayloads) {
  ServerOptions opts = worker_options();
  Server srv(opts);
  Session session(srv.core());
  const JsonValue bad_cache =
      json_parse(session.handle_line(R"({"op":"replicate_in","cache":"!not base64!"})"));
  EXPECT_FALSE(bad_cache.find("ok")->as_bool());
  EXPECT_EQ(bad_cache.find("code")->as_string(), "bad_request");
  const JsonValue bad_graph = json_parse(
      session.handle_line(R"({"op":"replicate_in","graphs":[{"edges":[[0,0]]}]})"));
  EXPECT_FALSE(bad_graph.find("ok")->as_bool());
}

TEST(Replication, MalformedPeerRejectedByRouterAndReplicateOut) {
  // Router peers and replicate_out's push target share one host:port
  // parser; each caller reports a malformed address its own way.
  ServerOptions opts = worker_options();
  Server srv(opts);
  Session session(srv.core());
  for (const std::string peer : {":80", "h:", "h", "h:8x", "h:65536"}) {
    RouterOptions ropts;
    ropts.peers = {peer};
    EXPECT_THROW((void)Router(ropts, srv.core()), std::invalid_argument) << peer;
    const JsonValue reply = json_parse(
        session.handle_line(R"({"op":"replicate_out","peer":")" + peer + "\"}"));
    EXPECT_FALSE(reply.find("ok")->as_bool()) << peer;
    EXPECT_EQ(reply.find("code")->as_string(), "bad_request") << peer;
  }
  RouterOptions highest_port;
  highest_port.peers = {"127.0.0.1:65535"};
  EXPECT_NO_THROW((void)Router(highest_port, srv.core()));
}

TEST(Base64, RoundTripsAndRejectsMalformedInput) {
  for (const std::string& data :
       {std::string(""), std::string("a"), std::string("ab"), std::string("abc"),
        std::string("\x00\xff\x7f\x80", 4)}) {
    const std::optional<std::string> back = base64_decode(base64_encode(data));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
  }
  for (const char* bad : {"abc", "ab=c", "a===", "====", "ab!d"}) {
    EXPECT_FALSE(base64_decode(bad).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------------
// The routed cluster: 2 workers + 1 router, bit-identical to a single server

class RoutedClusterTest : public ::testing::Test {
 protected:
  /// The two routed workers' options (the router and the reference server
  /// always run worker_options()).
  virtual ServerOptions routed_worker_options() const { return worker_options(); }

  void SetUp() override {
    worker1_ = std::make_unique<Server>(routed_worker_options());
    worker2_ = std::make_unique<Server>(routed_worker_options());
    worker1_->bind_and_listen();
    worker2_->bind_and_listen();
    threads_.emplace_back([this] { worker1_->serve(); });
    threads_.emplace_back([this] { worker2_->serve(); });

    ServerOptions router_opts = worker_options();
    router_opts.http_port = 0;  // the router speaks both transports
    router_srv_ = std::make_unique<Server>(router_opts);
    RouterOptions ropts;
    ropts.peers = {"127.0.0.1:" + std::to_string(worker1_->port()),
                   "127.0.0.1:" + std::to_string(worker2_->port())};
    peers_ = ropts.peers;
    router_ = std::make_unique<Router>(ropts, router_srv_->core());
    router_->install();
    router_srv_->bind_and_listen();
    threads_.emplace_back([this] { router_srv_->serve(); });

    // The single-server reference the routed responses must match.
    reference_ = std::make_unique<Server>(worker_options());
  }

  void TearDown() override {
    router_srv_->request_stop();
    worker1_->request_stop();
    worker2_->request_stop();
    for (std::thread& t : threads_) t.join();
    router_.reset();  // drops its pooled worker connections
  }

  /// Puts grid(3, 4) and patches one of its non-edges in, through the router
  /// and on `ref`. The edge is chosen so that the child's own ring owner is
  /// not the parent's worker, where the router places the child. Returns the
  /// child graph and its handle (empty if no edge qualifies).
  std::pair<Graph, std::string> put_and_patch_off_ring(int fd, LineReader& reader,
                                                       Session& ref) {
    const Graph parent = graph::gen::grid(3, 4);
    const std::string put = "{\"op\":\"put_graph\",\"graph\":" + graph_json(parent) + "}";
    const std::string handle =
        json_parse(raw_line_exchange(fd, reader, put)).find("handle")->as_string();
    EXPECT_TRUE(json_parse(ref.handle_line(put)).find("ok")->as_bool());

    // The workers' ports are ephemeral, so ring placement varies per run.
    const HashRing ring(peers_);
    const std::size_t parent_owner = ring.owner_index(graph::graph_hash(parent));
    for (graph::Vertex u = 0; u < parent.num_vertices(); ++u) {
      for (graph::Vertex v = u + 1; v < parent.num_vertices(); ++v) {
        if (parent.has_edge(u, v)) continue;
        graph::GraphPatch edit;
        edit.add = {{u, v}};
        Graph patched = graph::apply_patch(parent, edit).graph;
        if (ring.owner_index(graph::graph_hash(patched)) == parent_owner) continue;
        const std::string patch = "{\"op\":\"patch_graph\",\"handle\":\"" + handle +
                                  "\",\"add\":[[" + std::to_string(u) + "," +
                                  std::to_string(v) + "]]}";
        const JsonValue routed = json_parse(raw_line_exchange(fd, reader, patch));
        EXPECT_TRUE(routed.find("ok")->as_bool());
        const std::string child = routed.find("handle")->as_string();
        EXPECT_EQ(child, json_parse(ref.handle_line(patch)).find("handle")->as_string());
        EXPECT_EQ(child, api::GraphStore::handle_for(graph::graph_hash(patched)));
        return {std::move(patched), child};
      }
    }
    ADD_FAILURE() << "every child of grid(3, 4) hashes to the parent's worker";
    return {parent, ""};
  }

  /// Two inline cycles whose ring owners are different workers, so a batch
  /// of both splits into two sub-batches.
  std::pair<std::string, std::string> graphs_owned_by_both_workers() const {
    const HashRing ring(peers_);
    std::vector<std::string> owned(2);
    for (int k = 3; k < 64 && (owned[0].empty() || owned[1].empty()); ++k) {
      const Graph g = graph::gen::cycle(k);
      std::string& slot = owned[ring.owner_index(graph::graph_hash(g))];
      if (slot.empty()) slot = graph_json(g);
    }
    EXPECT_FALSE(owned[0].empty() || owned[1].empty());
    return {owned[0], owned[1]};
  }

  std::unique_ptr<Server> worker1_, worker2_, router_srv_, reference_;
  std::unique_ptr<Router> router_;
  std::vector<std::string> peers_;
  std::vector<std::thread> threads_;
};

TEST_F(RoutedClusterTest, MixedBatchBitIdenticalOnBothTransports) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);

  // Store two graphs through the router (consistent-hashed to the workers)
  // and the same two on the reference server. Content-addressed handles
  // guarantee both sides mint identical handles.
  std::vector<std::string> handles;
  Session ref(reference_->core());
  for (const Graph& g : {graph::gen::grid(4, 5), graph::gen::cycle(9)}) {
    const std::string line = "{\"op\":\"put_graph\",\"graph\":" + graph_json(g) + "}";
    const JsonValue routed = json_parse(raw_line_exchange(fd, reader, line));
    ASSERT_TRUE(routed.find("ok")->as_bool());
    const JsonValue direct = json_parse(ref.handle_line(line));
    ASSERT_TRUE(direct.find("ok")->as_bool());
    ASSERT_EQ(routed.find("handle")->as_string(), direct.find("handle")->as_string());
    handles.push_back(routed.find("handle")->as_string());
  }

  // A mixed batch: handles interleaved with inline graphs, ratio measurement
  // on so the response objects are rich.
  const std::string request =
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"measure_ratio\":true,\"graphs\":[\"" +
      handles[0] + "\"," + graph_json(graph::gen::path(8)) + ",\"" + handles[1] + "\"," +
      graph_json(graph::gen::theta_chain(3, 4)) + "]}";

  const std::string single = ref.handle_line(request);
  const auto single_pieces = split_raw_responses(single);
  ASSERT_TRUE(single_pieces.has_value()) << single;
  ASSERT_EQ(single_pieces->size(), 4u);

  // Line protocol through the router.
  const std::string routed_line = raw_line_exchange(fd, reader, request);
  const auto routed_pieces = split_raw_responses(routed_line);
  ASSERT_TRUE(routed_pieces.has_value()) << routed_line;
  ASSERT_EQ(routed_pieces->size(), single_pieces->size());
  for (std::size_t i = 0; i < single_pieces->size(); ++i) {
    EXPECT_EQ((*routed_pieces)[i], (*single_pieces)[i]) << "slot " << i;
  }

  // HTTP through the router: same body, same bit-identical responses array.
  const int http_fd = server::tcp_connect("127.0.0.1", router_srv_->http_port());
  ASSERT_GE(http_fd, 0);
  LineReader http_reader(http_fd);
  const std::string http_body =
      raw_http_exchange(http_fd, http_reader, "POST", "/v2/solve", request);
  const auto http_pieces = split_raw_responses(http_body);
  ASSERT_TRUE(http_pieces.has_value()) << http_body;
  ASSERT_EQ(http_pieces->size(), single_pieces->size());
  for (std::size_t i = 0; i < single_pieces->size(); ++i) {
    EXPECT_EQ((*http_pieces)[i], (*single_pieces)[i]) << "slot " << i;
  }
  ::close(http_fd);

  // Both workers actually took part: the router's stats line reports its
  // per-peer forward counters next to the local stats members.
  const JsonValue stats = json_parse(raw_line_exchange(fd, reader, "{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const JsonValue* router_stats = stats.find("router");
  ASSERT_NE(router_stats, nullptr);
  EXPECT_EQ(router_stats->find("peers")->as_int(), 2);
  std::uint64_t total_forwards = 0;
  for (const auto& [peer, count] : router_stats->find("forwards")->as_object()) {
    total_forwards += static_cast<std::uint64_t>(count.as_int());
  }
  EXPECT_GE(total_forwards, 4u);  // 2 puts + at least 2 solve sub-batches
  ::close(fd);
}

// Inline slots reach json_parse's canonical fast path or its general
// element grammar depending on their spelling; routed or not, and on either
// transport, every spelling must answer what a single server answers.
TEST_F(RoutedClusterTest, InlineSpellingsAndFaultsMatchSingleServerOnBothTransports) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const int http_fd = server::tcp_connect("127.0.0.1", router_srv_->http_port());
  ASSERT_GE(http_fd, 0);
  LineReader http_reader(http_fd);
  Session ref(reference_->core());
  const auto ref_http = [&](const std::string& body) {
    server::HttpRequest request;
    request.method = "POST";
    request.target = "/v2/solve";
    request.body = body;
    const std::string response = server::handle_http_request(request, ref);
    return response.substr(response.find("\r\n\r\n") + 4);
  };

  const std::string solve = R"({"op":"solve","solver":"theorem44","graphs":[)";
  const std::string canonical = graph_json(graph::gen::grid(3, 4));
  // No newline: it would end the line-protocol request.
  const std::string spaced = "{ \"n\" : 9 , \"edges\" : [ [0, 1], [1,2] ,\t[2,3],\t[3, 8] ] }";
  const std::string escaped =
      R"({"\u006e":7,"meta":{"a":"]\""},"ed\u0067es":[[0,1],[1,2],[2,6]],"edges\u0000":5})";
  for (const std::string& line :
       {solve + canonical + "," + spaced + "," + escaped + "]}",
        solve + escaped + "," + canonical + "," + spaced + "]}"}) {
    // The pieces are views into these lines, so the lines must outlive them.
    const std::string single = ref.handle_line(line);
    const std::string routed = raw_line_exchange(fd, reader, line);
    const std::string http = raw_http_exchange(http_fd, http_reader, "POST", "/v2/solve", line);
    const auto single_pieces = split_raw_responses(single);
    ASSERT_TRUE(single_pieces.has_value()) << single;
    ASSERT_EQ(single_pieces->size(), 3u);
    for (const std::string* answer : {&routed, &http}) {
      const auto pieces = split_raw_responses(*answer);
      ASSERT_TRUE(pieces.has_value()) << *answer;
      EXPECT_EQ(*pieces, *single_pieces) << line;
    }
  }

  // Two well-formed graphs owned by different workers, so the batches below
  // split into two sub-batches.
  const HashRing ring(peers_);
  std::vector<std::string> owned(2);
  for (int k = 3; k < 64 && (owned[0].empty() || owned[1].empty()); ++k) {
    const Graph g = graph::gen::cycle(k);
    std::string& slot = owned[ring.owner_index(graph::graph_hash(g))];
    if (slot.empty()) slot = graph_json(g);
  }
  ASSERT_FALSE(owned[0].empty() || owned[1].empty());
  const std::string a = owned[0];
  const std::string b = owned[1];
  const std::string b_broken = b.substr(0, b.size() - 1) + ",}";  // a syntax error
  for (const std::string& line : {
           // A decode fault next to slots owned by both workers.
           solve + a + R"(,{"edges":[[0,0]]},)" + b + "]}",
           solve + a + "," + b + R"(,{"edges":[[0,1],[1]]})" + "]}",
           // Decode faults in both sub-batches: the first slot's is reported.
           solve + a + R"(,{"n":2,"edges":[[0,5]]},)" + b + R"(,{"edges":[[1,1]]}]})",
           // A decode fault, then a syntax error in the other sub-batch.
           solve + a + R"(,{"edges":[[0,0]]},)" + b_broken + "]}",
           solve + R"({"edges":[[0,"1"]]},)" + a + "," + b_broken + "]}",
           // A syntax error, then a decode fault.
           solve + b_broken + "," + a + R"(,{"edges":[[0,0]]}]})",
           // A syntax error after "graphs", outside every slot.
           solve + a + R"(,{"edges":[[2,2]]},)" + b + R"(],"options":{"t":}})",
       }) {
    const std::string single = ref.handle_line(line);
    ASSERT_TRUE(single.starts_with(R"({"ok":false,"code":"bad_request")")) << single;
    EXPECT_EQ(raw_line_exchange(fd, reader, line), single) << line;
    EXPECT_EQ(raw_http_exchange(http_fd, http_reader, "POST", "/v2/solve", line), ref_http(line))
        << line;
  }
  ::close(http_fd);
  ::close(fd);
}

// A canonically ordered inline slot is hashed from its edges and placed
// without a CSR; a slot in any other order is built at decode. A routed
// batch mixing both answers the single server's response elements and cache
// counters on both transports, cold and then warm.
TEST_F(RoutedClusterTest, CanonicalAndOtherInlineSlotsMatchSingleServerColdAndWarm) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const int http_fd = server::tcp_connect("127.0.0.1", router_srv_->http_port());
  ASSERT_GE(http_fd, 0);
  LineReader http_reader(http_fd);
  Session ref(reference_->core());

  const auto spell = [](const Graph& g, const std::vector<graph::Edge>& edges, bool reversed) {
    std::string text = "{\"n\":" + std::to_string(g.num_vertices()) + ",\"edges\":[";
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const graph::Edge& e = edges[i];
      text += (i ? ",[" : "[") + std::to_string(reversed ? e.v : e.u) + ',' +
              std::to_string(reversed ? e.u : e.v) + ']';
    }
    return text + "]}";
  };
  const Graph a = graph::gen::random_maximal_outerplanar(80, 3);
  const Graph b = graph::gen::grid(5, 6);
  const Graph c = graph::gen::theta_chain(4, 3);
  const Graph d = graph::gen::cycle(12);
  std::vector<graph::Edge> shuffled = c.edges();
  std::mt19937_64 rng(3);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::vector<graph::Edge> duplicated = d.edges();
  duplicated.insert(duplicated.begin() + 3, duplicated[3]);
  const std::string slots = graph_json(a) + "," + spell(b, b.edges(), true) + "," +
                            spell(c, shuffled, false) + "," + spell(d, duplicated, false);

  // One namespace per transport, so each starts cold.
  for (const bool http : {false, true}) {
    const std::string line = R"({"op":"solve","solver":"theorem44","namespace":")" +
                             std::string(http ? "http" : "line") + R"(","graphs":[)" + slots +
                             "]}";
    for (const char* round : {"cold", "warm"}) {
      const std::string single = ref.handle_line(line);
      const std::string routed =
          http ? raw_http_exchange(http_fd, http_reader, "POST", "/v2/solve", line)
               : raw_line_exchange(fd, reader, line);
      const auto single_pieces = split_raw_responses(single);
      const auto routed_pieces = split_raw_responses(routed);
      ASSERT_TRUE(single_pieces.has_value()) << single;
      ASSERT_TRUE(routed_pieces.has_value()) << routed;
      ASSERT_EQ(single_pieces->size(), 4u);
      EXPECT_EQ(*routed_pieces, *single_pieces) << round << (http ? " http" : " line");
      const JsonValue single_diag = *json_parse(single).find("diag");
      const JsonValue routed_diag = *json_parse(routed).find("diag");
      const bool cold = std::string(round) == "cold";
      EXPECT_EQ(single_diag.find("cache_misses")->as_int(), cold ? 4 : 0);
      for (const char* counter : {"cache_hits", "cache_misses"}) {
        EXPECT_EQ(routed_diag.find(counter)->as_int(), single_diag.find(counter)->as_int())
            << counter << ", " << round << (http ? " http" : " line");
      }
    }
  }
  ::close(http_fd);
  ::close(fd);
}

TEST_F(RoutedClusterTest, PatchForwardsToParentOwnerAndChildStaysRouted) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  Session ref(reference_->core());

  const std::string put = "{\"op\":\"put_graph\",\"graph\":" +
                          graph_json(graph::gen::grid(3, 4)) + "}";
  const std::string parent =
      json_parse(raw_line_exchange(fd, reader, put)).find("handle")->as_string();
  ASSERT_TRUE(json_parse(ref.handle_line(put)).find("ok")->as_bool());

  const std::string patch = "{\"op\":\"patch_graph\",\"handle\":\"" + parent +
                            "\",\"add\":[[0,5]],\"del\":[[0,1]]}";
  const JsonValue routed = json_parse(raw_line_exchange(fd, reader, patch));
  ASSERT_TRUE(routed.find("ok")->as_bool());
  const JsonValue direct = json_parse(ref.handle_line(patch));
  ASSERT_EQ(routed.find("handle")->as_string(), direct.find("handle")->as_string());
  const std::string child = routed.find("handle")->as_string();

  // Solving the child goes to the peer that owns it (the parent's owner, via
  // the location map — its content hash may belong elsewhere on the ring).
  const std::string solve =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + child + "\"]}";
  // The pieces are views into these lines, so the lines must outlive them.
  const std::string routed_line = raw_line_exchange(fd, reader, solve);
  const std::string single_line = ref.handle_line(solve);
  const auto routed_pieces = split_raw_responses(routed_line);
  const auto single_pieces = split_raw_responses(single_line);
  ASSERT_TRUE(routed_pieces.has_value());
  ASSERT_TRUE(single_pieces.has_value());
  EXPECT_EQ((*routed_pieces)[0], (*single_pieces)[0]);

  // Dropping parent and child through the router reaches their owner.
  for (const std::string& h : {child, parent}) {
    const JsonValue dropped = json_parse(
        raw_line_exchange(fd, reader, "{\"op\":\"drop_graph\",\"handle\":\"" + h + "\"}"));
    EXPECT_TRUE(dropped.find("ok")->as_bool()) << h;
  }
  ::close(fd);
}

TEST_F(RoutedClusterTest, SolveAfterDroppingChildMatchesSingleServer) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  Session ref(reference_->core());
  const std::string child = put_and_patch_off_ring(fd, reader, ref).second;
  ASSERT_FALSE(child.empty());

  // A dropped graph stays resolvable until evicted, so the router must keep
  // sending the child's handle to the worker that holds it.
  const std::string drop = "{\"op\":\"drop_graph\",\"handle\":\"" + child + "\"}";
  EXPECT_EQ(raw_line_exchange(fd, reader, drop), ref.handle_line(drop));
  const std::string solve =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + child + "\"]}";
  const std::string routed_line = raw_line_exchange(fd, reader, solve);
  const std::string single_line = ref.handle_line(solve);
  const auto routed_pieces = split_raw_responses(routed_line);
  const auto single_pieces = split_raw_responses(single_line);
  ASSERT_TRUE(single_pieces.has_value()) << single_line;
  ASSERT_TRUE(routed_pieces.has_value()) << routed_line;
  EXPECT_EQ((*routed_pieces)[0], (*single_pieces)[0]);
  ::close(fd);
}

TEST_F(RoutedClusterTest, PutOfPatchedChildMatchesSingleServer) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  Session ref(reference_->core());
  const auto [patched, child] = put_and_patch_off_ring(fd, reader, ref);
  ASSERT_FALSE(child.empty());

  // The child's graph is already stored (on the parent's worker): the put
  // must find it there and answer "new":false, not store a second copy on
  // the child's ring owner.
  const std::string put = "{\"op\":\"put_graph\",\"graph\":" + graph_json(patched) + "}";
  const std::string single_line = ref.handle_line(put);
  EXPECT_EQ(raw_line_exchange(fd, reader, put), single_line);
  EXPECT_FALSE(json_parse(single_line).find("new")->as_bool());
  ::close(fd);
}

TEST_F(RoutedClusterTest, HashCollisionRefusalsMatchSingleServerOnBothTransports) {
  // Graph a planted under the handle of graph b on both workers and on the
  // single server: the put of b and a patch whose child is b answer the
  // single server's bad_request bytes through the router on both transports.
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const int http_fd = server::tcp_connect("127.0.0.1", router_srv_->http_port());
  ASSERT_GE(http_fd, 0);
  LineReader http_reader(http_fd);
  Session ref(reference_->core());
  const auto ref_http = [&](const std::string& method, const std::string& target,
                            const std::string& body) {
    server::HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    const std::string response = server::handle_http_request(request, ref);
    return response.substr(response.find("\r\n\r\n") + 4);
  };
  const Graph a = graph::gen::cycle(5);
  const Graph b = graph::gen::path(5);
  for (Server* srv : {worker1_.get(), worker2_.get(), reference_.get()}) {
    ASSERT_TRUE(srv->core().store().put_hashed(a, graph::graph_hash(b)).inserted);
  }

  const std::string put_b = "{\"op\":\"put_graph\",\"graph\":" + graph_json(b) + "}";
  const std::string single = ref.handle_line(put_b);
  ASSERT_TRUE(single.starts_with(R"({"ok":false,"code":"bad_request")")) << single;
  EXPECT_NE(single.find(api::GraphStore::handle_for(graph::graph_hash(b))), std::string::npos);
  EXPECT_EQ(raw_line_exchange(fd, reader, put_b), single);
  EXPECT_EQ(raw_http_exchange(http_fd, http_reader, "PUT", "/v2/graphs", graph_json(b)),
            ref_http("PUT", "/v2/graphs", graph_json(b)));

  // b less its last edge, then a patch that adds it back.
  const Graph parent({{1}, {0, 2}, {1, 3}, {2}, {}});
  const std::string put_parent =
      "{\"op\":\"put_graph\",\"graph\":" + graph_json(parent) + "}";
  const std::string parent_line = ref.handle_line(put_parent);
  EXPECT_EQ(raw_line_exchange(fd, reader, put_parent), parent_line);
  const std::string parent_handle = json_parse(parent_line).find("handle")->as_string();
  const std::string patch =
      "{\"op\":\"patch_graph\",\"handle\":\"" + parent_handle + "\",\"add\":[[3,4]]}";
  EXPECT_EQ(raw_line_exchange(fd, reader, patch), ref.handle_line(patch));
  const std::string target = "/v2/graphs/" + parent_handle + "/patch";
  EXPECT_EQ(raw_http_exchange(http_fd, http_reader, "POST", target, R"({"add":[[3,4]]})"),
            ref_http("POST", target, R"({"add":[[3,4]]})"));
  EXPECT_EQ(ref.handle_line(patch), single);

  // Each refusal is counted on the worker that made it; a stays everywhere.
  EXPECT_EQ(worker1_->core().store().stats().hash_collisions +
                worker2_->core().store().stats().hash_collisions,
            4u);
  EXPECT_EQ(reference_->core().store().stats().hash_collisions, 5u);
  for (Server* srv : {worker1_.get(), worker2_.get(), reference_.get()}) {
    const auto planted =
        srv->core().store().get(api::GraphStore::handle_for(graph::graph_hash(b)));
    ASSERT_NE(planted, nullptr);
    EXPECT_EQ(*planted, a);
  }
  ::close(http_fd);
  ::close(fd);
}

// The router decodes a solve with the decoder a single server runs, so it
// refuses what a single server refuses, even a batch whose share on each
// worker would be legal: here one slot over max_batch_graphs, split across
// both workers.
TEST_F(RoutedClusterTest, OverLimitBatchMatchesSingleServerOnBothTransports) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const int http_fd = server::tcp_connect("127.0.0.1", router_srv_->http_port());
  ASSERT_GE(http_fd, 0);
  LineReader http_reader(http_fd);
  Session ref(reference_->core());
  ASSERT_EQ(router_srv_->core().options().limits.max_batch_graphs,
            reference_->core().options().limits.max_batch_graphs);

  const auto [a, b] = graphs_owned_by_both_workers();
  const std::size_t slots = reference_->core().options().limits.max_batch_graphs + 1;
  std::string request = R"({"op":"solve","solver":"greedy","graphs":[)";
  for (std::size_t i = 0; i < slots; ++i) {
    if (i) request += ',';
    request += i % 2 ? b : a;
  }
  request += "]}";
  const std::string single = ref.handle_line(request);
  ASSERT_TRUE(single.starts_with(R"({"ok":false,"code":"bad_request")")) << single;
  EXPECT_EQ(raw_line_exchange(fd, reader, request), single);
  // An error body over HTTP is the line itself.
  EXPECT_EQ(raw_http_exchange(http_fd, http_reader, "POST", "/v2/solve", request), single);
  ::close(http_fd);
  ::close(fd);
}

// The router reads each worker's diag tail for the namespace it sent, so a
// namespaced batch split across both workers must come back answered, with
// the namespace echoed, whether the request names it or open_session did.
TEST_F(RoutedClusterTest, NamespacedSplitBatchMatchesSingleServer) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  Session ref(reference_->core());
  const auto [a, b] = graphs_owned_by_both_workers();
  const std::string graphs = "\"graphs\":[" + a + "," + b + "]}";
  const std::string named = R"({"op":"solve","solver":"greedy","namespace":"t-\"q\"",)" + graphs;
  const std::string open = R"({"op":"open_session","namespace":"t\\b"})";
  const std::string unnamed = R"({"op":"solve","solver":"greedy",)" + graphs;
  EXPECT_EQ(raw_line_exchange(fd, reader, open), ref.handle_line(open));

  for (const auto& [line, ns] : {std::pair{named, std::string("t-\"q\"")},
                                 std::pair{unnamed, std::string("t\\b")}}) {
    const std::string single = ref.handle_line(line);
    const std::string routed = raw_line_exchange(fd, reader, line);
    std::string_view tail;
    const auto single_pieces = split_raw_responses(single);
    const auto routed_pieces = split_raw_responses(routed, &tail);
    ASSERT_TRUE(single_pieces.has_value()) << single;
    ASSERT_TRUE(routed_pieces.has_value()) << routed;
    EXPECT_EQ(*routed_pieces, *single_pieces) << line;
    EXPECT_TRUE(server::solve_diag_of(tail, ns).has_value()) << routed;
  }
  ::close(fd);
}

// A routed solve of a patched child runs incrementally on the worker that
// holds it, and its whole line, diag included, is the single server's.
TEST_F(RoutedClusterTest, PatchedChildSolveMatchesSingleServerDiag) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  Session ref(reference_->core());
  const std::string child = put_and_patch_off_ring(fd, reader, ref).second;
  ASSERT_FALSE(child.empty());
  const std::string parent =
      api::GraphStore::handle_for(graph::graph_hash(graph::gen::grid(3, 4)));

  std::string single;
  for (const std::string& handle : {parent, child}) {
    const std::string solve =
        "{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":[\"" + handle + "\"]}";
    single = ref.handle_line(solve);
    EXPECT_EQ(raw_line_exchange(fd, reader, solve), single) << handle;
  }
  std::string_view tail;
  ASSERT_TRUE(split_raw_responses(single, &tail).has_value()) << single;
  const std::optional<api::BatchDiagnostics> diag = server::solve_diag_of(tail, "");
  ASSERT_TRUE(diag.has_value()) << single;
  EXPECT_EQ(diag->incremental_solves, 1u);
  EXPECT_GT(diag->incremental_dirty, 0u);
  ::close(fd);
}

TEST_F(RoutedClusterTest, UnknownHandleAndBadRequestsMatchSingleServerCodes) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  Session ref(reference_->core());

  for (const std::string& request :
       {std::string("{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"g00000000000000aa\"]}"),
        std::string("{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"nonsense\"]}"),
        std::string("{\"op\":\"drop_graph\",\"handle\":\"g00000000000000aa\"}"),
        std::string("{\"op\":\"solve\",\"solver\":\"nope\",\"graphs\":[{\"edges\":[[0,1]]}]}"),
        // Integral doubles where ints are required: the forwarded request
        // must keep them doubles for the worker to refuse them too.
        std::string("{\"op\":\"solve\",\"solver\":\"algorithm1\",\"options\":{\"t\":5.0},"
                    "\"graphs\":[{\"edges\":[[0,1]]}]}"),
        std::string("{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"threads\":2.0},"
                    "\"graphs\":[{\"edges\":[[0,1]]}]}")}) {
    const JsonValue routed = json_parse(raw_line_exchange(fd, reader, request));
    const JsonValue direct = json_parse(ref.handle_line(request));
    ASSERT_FALSE(routed.find("ok")->as_bool()) << request;
    ASSERT_FALSE(direct.find("ok")->as_bool()) << request;
    EXPECT_EQ(routed.find("code")->as_string(), direct.find("code")->as_string()) << request;
  }
  ::close(fd);
}

// Workers that admit one solve per namespace at a time. A test holds that
// slot through core().try_begin_solve, so every sub-batch the router sends
// that worker in the default namespace answers server_busy.
class BusyWorkerClusterTest : public RoutedClusterTest {
 protected:
  ServerOptions routed_worker_options() const override {
    ServerOptions opts = worker_options();
    opts.core.limits.max_namespace_inflight = 1;
    return opts;
  }

  Server& worker(std::size_t peer) { return peer == 0 ? *worker1_ : *worker2_; }

  /// The router's forward counter for `peer`, from its stats line (stats
  /// is answered by the router itself, so reading it forwards nothing).
  std::uint64_t forwards(int fd, LineReader& reader, std::size_t peer) {
    const JsonValue stats = json_parse(raw_line_exchange(fd, reader, "{\"op\":\"stats\"}"));
    const JsonValue* count =
        stats.find("router")->find("forwards")->find(router_->ring().peers()[peer]);
    return count ? static_cast<std::uint64_t>(count->as_int()) : 0;
  }

  /// One try plus the router's busy retries.
  const std::uint64_t kAttempts = 1 + static_cast<std::uint64_t>(Router::kBusyRetries);
};

TEST_F(BusyWorkerClusterTest, BusyHandleBatchIsRetriedThenPassedThroughVerbatim) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const Graph g = graph::gen::grid(4, 5);
  const JsonValue put = json_parse(
      raw_line_exchange(fd, reader, "{\"op\":\"put_graph\",\"graph\":" + graph_json(g) + "}"));
  ASSERT_TRUE(put.find("ok")->as_bool());
  const std::string solve = "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" +
                            put.find("handle")->as_string() + "\"]}";
  const std::size_t owner = router_->ring().owner_index(graph::graph_hash(g));
  const std::size_t other = 1 - owner;

  ASSERT_TRUE(worker(owner).core().try_begin_solve(""));
  const std::uint64_t owner_before = forwards(fd, reader, owner);
  const std::uint64_t other_before = forwards(fd, reader, other);
  const std::string routed = raw_line_exchange(fd, reader, solve);
  // The owner's own busy line, byte for byte: only the owner holds the
  // graph, so the router retries it and then passes its answer through.
  Session direct(worker(owner).core());
  EXPECT_EQ(routed, direct.handle_line(solve));
  EXPECT_EQ(json_parse(routed).find("code")->as_string(), "server_busy");
  EXPECT_EQ(forwards(fd, reader, owner) - owner_before, kAttempts);
  EXPECT_EQ(forwards(fd, reader, other) - other_before, 0u);

  worker(owner).core().end_solve("");
  EXPECT_TRUE(json_parse(raw_line_exchange(fd, reader, solve)).find("ok")->as_bool());
  ::close(fd);
}

TEST_F(BusyWorkerClusterTest, BusyInlineBatchFailsOverToTheOtherWorker) {
  const int fd = server::tcp_connect("127.0.0.1", router_srv_->port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const Graph g = graph::gen::cycle(11);
  const std::string solve =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[" + graph_json(g) + "]}";
  const std::size_t owner = router_->ring().owner_index(graph::graph_hash(g));
  const std::size_t other = 1 - owner;

  ASSERT_TRUE(worker(owner).core().try_begin_solve(""));
  const std::uint64_t owner_before = forwards(fd, reader, owner);
  const std::uint64_t other_before = forwards(fd, reader, other);
  const std::string routed = raw_line_exchange(fd, reader, solve);
  worker(owner).core().end_solve("");

  Session ref(reference_->core());
  const std::string single = ref.handle_line(solve);
  const auto routed_pieces = split_raw_responses(routed);
  const auto single_pieces = split_raw_responses(single);
  ASSERT_TRUE(routed_pieces.has_value()) << routed;
  ASSERT_TRUE(single_pieces.has_value()) << single;
  EXPECT_EQ(*routed_pieces, *single_pieces);
  EXPECT_EQ(forwards(fd, reader, owner) - owner_before, kAttempts);
  EXPECT_EQ(forwards(fd, reader, other) - other_before, 1u);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// What a worker receives

/// A worker that records every request line it receives, newline included,
/// and answers it through a real Session — or server_busy while busy
/// answers are owed (answer_busy).
class RecordingPeer {
 public:
  RecordingPeer() : server_(worker_options()) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    accepting_ = std::thread([this] {
      int fd;
      while ((fd = ::accept(listen_fd_, nullptr, nullptr)) >= 0) {
        const std::lock_guard<std::mutex> lock(mu_);
        fds_.push_back(fd);
        serving_.emplace_back([this, fd] { serve(fd); });
      }
    });
  }

  RecordingPeer(const RecordingPeer&) = delete;
  RecordingPeer& operator=(const RecordingPeer&) = delete;

  ~RecordingPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // accept() fails: no new connections
    accepting_.join();
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : serving_) t.join();
    for (const int fd : fds_) ::close(fd);
    ::close(listen_fd_);
  }

  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

  std::vector<std::string> take_received() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(received_, {});
  }

  /// The next `n` lines are answered server_busy.
  void answer_busy(int n) {
    const std::lock_guard<std::mutex> lock(mu_);
    busy_ = n;
  }

 private:
  void serve(int fd) {
    Session session(server_.core(), Session::LeaseScope::Owned);
    LineReader reader(fd);
    while (const std::optional<std::string_view> line = reader.next_line_view(64u << 20)) {
      bool busy = false;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        received_.push_back(std::string(*line) + "\n");
        busy = busy_ > 0;
        busy_ -= busy ? 1 : 0;
      }
      const std::string reply = busy ? server::encode_error(server::ErrorCode::ServerBusy, "busy")
                                     : session.handle_line(*line);
      if (!server::send_all(fd, reply + "\n")) return;
    }
  }

  Server server_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex mu_;
  std::vector<std::string> received_;  // guarded by mu_
  int busy_ = 0;                       // guarded by mu_
  std::vector<int> fds_;               // guarded by mu_ until accepting_ is joined
  std::vector<std::thread> serving_;   // likewise
  std::thread accepting_;
};

// The router gathers each sub-request from views of the client's line and
// sends it in one gathered write. A worker receives, byte for byte, the line
// the router assembled into one buffer before: the head, the peer's slots in
// client order (inline bytes verbatim, handles re-quoted), the namespace
// pinned and escaped, the other members in key order with 5.0 still a
// double, and a newline. A busy retry sends the same bytes again; so does a
// forwarded put_graph, its graph verbatim.
TEST(RouterForward, WorkersReceiveTheAssembledLineByteForByte) {
  RecordingPeer peers[2];
  Server router_srv(worker_options());
  RouterOptions ropts;
  ropts.peers = {peers[0].address(), peers[1].address()};
  Router router(ropts, router_srv.core());
  router.install();
  Session client(router_srv.core());
  const HashRing& ring = router.ring();

  // Graph slots spelled with whitespace, which only a verbatim forward keeps.
  const auto spaced = [](const Graph& g) {
    std::string json = graph_json(g);
    json.replace(json.find(",\"edges\":"), 9, " , \"edges\" : ");
    return "{ " + json.substr(1);
  };

  // A stored graph, put through the router to its owner.
  const std::string stored = spaced(graph::gen::grid(3, 4));
  const std::size_t stored_owner = ring.owner_index(graph::graph_hash(graph::gen::grid(3, 4)));
  const std::string put = "{\"op\":\"put_graph\",\"graph\":" + stored + "}";
  const JsonValue put_reply = json_parse(client.handle_line(put));
  ASSERT_TRUE(put_reply.find("ok")->as_bool()) << put_reply.find("error")->as_string();
  EXPECT_EQ(peers[stored_owner].take_received(), std::vector<std::string>{put + "\n"});
  EXPECT_TRUE(peers[1 - stored_owner].take_received().empty());
  const std::string handle = put_reply.find("handle")->as_string();

  // Inline cycles until each peer owns one.
  std::string inline_slot[2];
  for (graph::Vertex n = 3; inline_slot[0].empty() || inline_slot[1].empty(); ++n) {
    ASSERT_LT(n, 200);
    const Graph g = graph::gen::cycle(n);
    std::string& slot = inline_slot[ring.owner_index(graph::graph_hash(g))];
    if (slot.empty()) slot = spaced(g);
  }
  // Slots: [inline on 0, the handle, inline on 1]; the handle's peer gets a
  // mixed sub-batch.
  const std::string quoted = "\"" + handle + "\"";
  const std::string slots[3] = {inline_slot[0], quoted, inline_slot[1]};
  const std::size_t owner[3] = {0, stored_owner, 1};
  const std::string request = std::string(R"({"op":"solve","solver":"ksv","options":{"k":5.0},)") +
                              R"("namespace":"a\"b\\c","graphs":[)" + slots[0] + "," + slots[1] +
                              "," + slots[2] + "]}";
  for (RecordingPeer& peer : peers) peer.answer_busy(1);
  const std::string reply = client.handle_line(request);
  EXPECT_EQ(server::error_code_of(reply), server::ErrorCode::BadRequest) << reply;  // 5.0 is no int

  for (std::size_t p = 0; p < 2; ++p) {
    std::string want = R"({"op":"solve","graphs":[)";
    bool first = true;
    for (std::size_t i = 0; i < 3; ++i) {
      if (owner[i] != p) continue;
      if (!first) want += ',';
      first = false;
      want += slots[i];
    }
    want += R"(],"namespace":"a\"b\\c","options":{"k":5.0},"solver":"ksv"})" "\n";
    // Busy once, then retried on the same peer with the same bytes.
    EXPECT_EQ(peers[p].take_received(), (std::vector<std::string>{want, want})) << p;
  }
}

// ---------------------------------------------------------------------------
// Client timeouts (satellite: net.cpp configurable timeouts)

TEST(NetTimeouts, ReadTimeoutIsDistinguishedFromEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(server::set_io_timeout(fds[0], 50));
  LineReader reader(fds[0]);
  const std::optional<std::string> line = reader.next_line(1024);
  EXPECT_FALSE(line.has_value());
  EXPECT_TRUE(reader.timed_out());  // nothing arrived in 50ms: timeout...
  ASSERT_TRUE(server::send_all(fds[1], "late\n"));
  const std::optional<std::string> late = reader.next_line(1024);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, "late");
  EXPECT_FALSE(reader.timed_out());  // ...and a successful read clears it
  ::close(fds[1]);
  const std::optional<std::string> eof = reader.next_line(1024);
  EXPECT_FALSE(eof.has_value());
  EXPECT_FALSE(reader.timed_out());  // a real EOF is not a timeout
  ::close(fds[0]);
}

}  // namespace
}  // namespace lmds::cluster
