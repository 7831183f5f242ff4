// Tests for the cluster subsystem: consistent-hash ring placement, the raw
// solve-response splitter, pin leases (ownership, expiry, connection
// teardown), per-namespace quotas (store bytes + solve admission), peer
// replication (in-process and pushed over a socket), and — the heart of the
// subsystem — a routed 2-worker cluster whose mixed handle/inline batches
// come back BIT-IDENTICAL to a single server on both transports.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/graph_store.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "server/net.hpp"
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
  EXPECT_TRUE(store.put_replica(graph::gen::cycle(4)).inserted);
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

  std::unique_ptr<Server> worker1_, worker2_, router_srv_, reference_;
  std::unique_ptr<Router> router_;
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
