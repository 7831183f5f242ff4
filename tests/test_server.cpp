// Tests for the serving subsystem: the minimal JSON layer, protocol
// decode/encode (graph decode, solve requests, error classes, the response
// encoder against its std::to_string oracle), the socket-free Session core
// (v1 round-trips, protocol-v2 graph handles, namespaces, per-request
// overrides, malformed-request rejection, admin verbs, cache snapshot
// save/load/warm-hit, warm replies spliced from memoized bytes), the HTTP
// front-end (routing, status mapping), and real TCP round-trips over the
// loopback interface for both transports.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "graph/generators.hpp"
#include "server/http.hpp"
#include "server/json.hpp"
#include "server/net.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
#include "support/encode_reference.hpp"

namespace lmds::server {
namespace {

using graph::Graph;

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

// ---------------------------------------------------------------------------
// JSON layer

TEST(Json, ParsesScalarsArraysObjects) {
  const JsonValue v = json_parse(
      R"({"a": 1, "b": -2.5, "c": true, "d": null, "e": [1, 2, 3], "f": {"g": "hi"}})");
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_double(), -2.5);
  EXPECT_TRUE(v.find("c")->as_bool());
  EXPECT_TRUE(v.find("d")->is_null());
  EXPECT_EQ(v.find("e")->as_array().size(), 3u);
  EXPECT_EQ(v.find("e")->as_array()[2].as_int(), 3);
  EXPECT_EQ(v.find("f")->find("g")->as_string(), "hi");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, IntAndDoubleStayDistinct) {
  EXPECT_EQ(json_parse("5").as_int(), 5);
  EXPECT_EQ(json_parse("5.0").type(), JsonValue::Type::Double);
  EXPECT_THROW((void)json_parse("5.5").as_int(), JsonError);  // never truncates
  EXPECT_DOUBLE_EQ(json_parse("5").as_double(), 5.0);         // int promotes
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string original = "tab\t quote\" backslash\\ newline\n unicode \xC3\xA9";
  std::string encoded;
  json_append_string(encoded, original);
  EXPECT_EQ(json_parse(encoded).as_string(), original);
  EXPECT_EQ(json_parse(R"("é")").as_string(), "\xC3\xA9");
  EXPECT_EQ(json_parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1, 2", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
                          "\"unterminated", "\"bad \\x escape\"", "nan", "--1",
                          "{\"a\":1,}"}) {
    EXPECT_THROW((void)json_parse(bad), JsonError) << "accepted: " << bad;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW((void)json_parse(deep), JsonError);
}

TEST(Json, DoubleEmissionIsLocaleIndependent) {
  std::string out;
  json_append_double(out, 0.125);
  EXPECT_EQ(out, "0.125");  // always '.', never a locale decimal comma
}

TEST(Json, DumpKeepsIntegralDoublesDouble) {
  // The router re-dumps request members; a 5.0 that came back as 5 would
  // turn a bad_request into a success.
  for (const auto& [literal, dumped] : std::vector<std::pair<std::string, std::string>>{
           {"5.0", "5.0"}, {"-2.0", "-2.0"}, {"1e300", "1e+300"}, {"0.5", "0.5"},
           {"1e0", "1.0"}, {"-0.0", "-0.0"}}) {
    const JsonValue parsed = json_parse(literal);
    ASSERT_EQ(parsed.type(), JsonValue::Type::Double) << literal;
    EXPECT_EQ(json_dump(parsed), dumped) << literal;
    const JsonValue back = json_parse(json_dump(parsed));
    EXPECT_EQ(back.type(), JsonValue::Type::Double) << literal;
    EXPECT_EQ(back.as_double(), parsed.as_double()) << literal;
  }
  EXPECT_EQ(json_dump(json_parse("5")), "5");
  EXPECT_EQ(json_dump(json_parse("-17")), "-17");
  EXPECT_EQ(json_dump(json_parse(R"({"t":5.0,"k":3})")), R"({"k":3,"t":5.0})");
}

// ---------------------------------------------------------------------------
// Graph decode

TEST(Protocol, DecodesEdgeListGraph) {
  const ServerLimits limits;
  const Graph g =
      decode_graph(json_parse(R"({"n": 4, "edges": [[0,1],[1,2],[2,3]]})"), limits);
  EXPECT_EQ(g, graph::gen::path(4));
}

TEST(Protocol, DerivesVertexCountWhenAbsent) {
  const ServerLimits limits;
  const Graph g = decode_graph(json_parse(R"({"edges": [[0,1],[1,2]]})"), limits);
  EXPECT_EQ(g.num_vertices(), 3);
  // And "n" can allocate isolated trailing vertices.
  const Graph iso = decode_graph(json_parse(R"({"n": 5, "edges": [[0,1]]})"), limits);
  EXPECT_EQ(iso.num_vertices(), 5);
  EXPECT_EQ(iso.num_edges(), 1);
}

TEST(Protocol, RejectsMalformedGraphs) {
  const ServerLimits limits;
  for (const char* bad : {
           R"({"edges": [[0,0]]})",            // self-loop
           R"({"n": 2, "edges": [[0,5]]})",    // endpoint outside [0, n)
           R"({"n": -1, "edges": []})",        // negative n
           R"({"edges": [[0,-1]]})",           // negative endpoint
           R"({"edges": [[0]]})",              // not a pair
           R"({"edges": [[0,1,2]]})",          // not a pair
           R"({"edges": 7})",                  // edges not an array
           R"({"n": 3})",                      // no edges field
           R"([1,2,3])",                       // graph not an object
           R"({"edges": [[0, 1.5]]})",         // non-integer endpoint
       }) {
    EXPECT_THROW((void)decode_graph(json_parse(bad), limits), ProtocolError)
        << "accepted: " << bad;
  }
}

TEST(Protocol, RejectsOversizedGraph) {
  ServerLimits limits;
  limits.max_graph_vertices = 10;
  EXPECT_THROW((void)decode_graph(json_parse(R"({"n": 11, "edges": []})"), limits),
               ProtocolError);
  EXPECT_THROW((void)decode_graph(json_parse(R"({"edges": [[0, 10]]})"), limits),
               ProtocolError);
  EXPECT_NO_THROW((void)decode_graph(json_parse(R"({"n": 10, "edges": []})"), limits));
}

// ---------------------------------------------------------------------------
// Reply classification

TEST(Protocol, ErrorCodeOfReadsEveryEncodedCode) {
  for (const ErrorCode code : {ErrorCode::BadRequest, ErrorCode::UnknownSolver,
                               ErrorCode::UnknownHandle, ErrorCode::SolverFailure,
                               ErrorCode::IoError, ErrorCode::ServerBusy}) {
    // A message that itself looks like an error line changes nothing.
    for (const char* message : {"", "boom", R"({"ok":false,"code":"io_error","error":"x"})"}) {
      EXPECT_EQ(error_code_of(encode_error(code, message)), code) << to_string(code);
    }
  }
  for (const char* line : {
           R"({"ok":true,"op":"stats"})",
           R"({"ok":true,"op":"put_graph","handle":"g0","code":"bad_request","new":true})",
           R"({"ok":false})",
           R"({"ok":false,"code":"server_bu)",        // truncated prefix
           R"({"ok":false,"code":"server_busy")",     // truncated after the code
           R"({"ok":false,"code":"server_busy_x","error":"?"})",  // unknown code
           R"({"ok":false,"code":"frobnicated","error":"?"})",    // unknown code
           R"({"ok": false,"code":"bad_request","error":"?"})",   // not encode_error's
           "",
       }) {
    EXPECT_EQ(error_code_of(line), std::nullopt) << line;
  }
}

// ---------------------------------------------------------------------------
// Response encoding: the std::to_chars writer against its oracle

std::string reference_element(const api::Response& r) {
  std::string out;
  encode_response_element_reference(out, r);
  return out;
}

std::string element(const api::Response& r) {
  std::string out;
  encode_response_element(out, r);
  return out;
}

TEST(Protocol, ResponseElementMatchesReferenceOnEverySolver) {
  std::mt19937_64 rng(20261017);
  std::vector<Graph> gs;
  gs.push_back(graph::gen::path(12));
  gs.push_back(graph::gen::cycle(9));
  gs.push_back(graph::gen::star(7));
  gs.push_back(graph::gen::grid(4, 5));
  gs.push_back(graph::gen::spider(4, 3));
  gs.push_back(graph::gen::theta_chain(4, 4));
  gs.push_back(graph::gen::caterpillar(8, 2));
  gs.push_back(graph::gen::clique_with_pendants(9));
  gs.push_back(graph::gen::random_tree(30, rng));
  const api::Registry& registry = api::Registry::instance();
  std::size_t compared = 0;
  for (const api::SolverSpec* spec : registry.specs()) {
    for (const bool ratio : {false, true}) {
      for (const bool traffic : {false, true}) {
        if (traffic && !spec->supports(api::Mode::Local)) continue;
        api::Request req;
        req.measure_ratio = ratio;
        req.measure_traffic = traffic;
        const std::vector<api::Response> responses =
            registry.run_batch(spec->name, {gs.data(), gs.size()}, req);
        std::vector<std::string> expected;
        for (const api::Response& r : responses) {
          expected.push_back(reference_element(r));
          EXPECT_EQ(element(r), expected.back())
              << spec->name << " ratio=" << ratio << " traffic=" << traffic;
          ++compared;
        }
        // The whole line: encode_solve_result's elements are the oracle's.
        const std::vector<std::string_view> raw(expected.begin(), expected.end());
        api::BatchDiagnostics diag;
        diag.shards = static_cast<int>(gs.size());
        EXPECT_EQ(encode_solve_result({responses.data(), responses.size()}, diag, "t"),
                  encode_solve_result_raw({raw.data(), raw.size()}, diag, "t"))
            << spec->name;
      }
    }
  }
  EXPECT_GE(compared, registry.specs().size() * 2 * gs.size());
}

TEST(Protocol, ResponseElementMatchesReferenceOnExtremeValues) {
  api::Response r;
  r.solver = "quote\"slash\\ctl\x01";
  r.problem = api::Problem::Mvc;
  r.solution = {std::numeric_limits<api::Vertex>::min(), 0, 9, 10, 99, 100, 65535,
                std::numeric_limits<api::Vertex>::max()};
  r.valid = false;
  r.ratio_measured = true;
  r.ratio = {7, 3, false, 7.0 / 3.0};
  r.diag.rounds = -1;
  r.diag.traffic_measured = true;
  r.diag.traffic = {std::numeric_limits<int>::max(), std::numeric_limits<std::uint64_t>::max(),
                    0};
  EXPECT_EQ(element(r), reference_element(r));
  r.solution.clear();
  r.ratio = {0, 0, true, 0.0};
  r.diag.rounds = std::numeric_limits<int>::min();
  EXPECT_EQ(element(r), reference_element(r));
  EXPECT_EQ(element(api::Response{}), reference_element(api::Response{}));
}

// ---------------------------------------------------------------------------
// handle_line: solve round-trips and error classes (no sockets involved)

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

std::vector<Graph> suite() {
  std::vector<Graph> gs;
  gs.push_back(graph::gen::path(8));
  gs.push_back(graph::gen::cycle(7));
  gs.push_back(graph::gen::grid(3, 4));
  gs.push_back(graph::gen::theta_chain(4, 3));
  return gs;
}

ServerOptions test_options(std::size_t cache_capacity = 64) {
  ServerOptions opts;
  opts.core.batch.threads = 2;
  opts.core.batch.shard_size = 1;
  opts.core.batch.cache_capacity = cache_capacity;
  opts.core.snapshot_dir = testing::TempDir();  // client snapshot verbs resolve here
  return opts;
}

const std::string kErr = "\"ok\":false";

TEST(ServerCore, SolveRoundTripMatchesDirectRegistry) {
  Server server(test_options());
  const std::vector<Graph> gs = suite();
  const std::string line = "{\"op\":\"solve\",\"solver\":\"theorem44\",\"measure_ratio\":true,"
                           "\"graphs\":" + graphs_json(gs) + "}";
  const JsonValue response = json_parse(server.handle_line(line));
  ASSERT_TRUE(response.find("ok")->as_bool()) << server.handle_line(line);

  api::Request req;
  req.measure_ratio = true;
  const auto direct = api::Registry::instance().run_batch("theorem44",
                                                          {gs.data(), gs.size()}, req);
  const auto& responses = response.find("responses")->as_array();
  ASSERT_EQ(responses.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_TRUE(responses[i].find("valid")->as_bool());
    EXPECT_EQ(responses[i].find("solver")->as_string(), "theorem44");
    EXPECT_EQ(responses[i].find("problem")->as_string(), "mds");
    const auto& solution = responses[i].find("solution")->as_array();
    ASSERT_EQ(solution.size(), direct[i].solution.size());
    for (std::size_t j = 0; j < solution.size(); ++j) {
      EXPECT_EQ(solution[j].as_int(), direct[i].solution[j]);
    }
    EXPECT_EQ(responses[i].find("ratio")->find("solution_size")->as_int(),
              direct[i].ratio.solution_size);
  }
  const JsonValue* diag = response.find("diag");
  EXPECT_EQ(diag->find("cache_misses")->as_int(),
            static_cast<std::int64_t>(gs.size()));
}

TEST(ServerCore, SecondIdenticalSolveIsAllCacheHits) {
  Server server(test_options());
  const std::string line = "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":" +
                           graphs_json(suite()) + "}";
  (void)server.handle_line(line);
  const JsonValue warm = json_parse(server.handle_line(line));
  EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(),
            static_cast<std::int64_t>(suite().size()));
  EXPECT_EQ(warm.find("diag")->find("cache_misses")->as_int(), 0);
}

TEST(ServerCore, EmptyBatchIsValidAndEmpty) {
  Server server(test_options());
  const JsonValue response = json_parse(
      server.handle_line(R"({"op":"solve","solver":"greedy","graphs":[]})"));
  EXPECT_TRUE(response.find("ok")->as_bool());
  EXPECT_TRUE(response.find("responses")->as_array().empty());
}

TEST(ServerCore, ErrorClassesAreDistinguished) {
  ServerOptions opts = test_options();
  opts.core.limits.max_graph_vertices = 10;
  opts.core.limits.max_batch_graphs = 2;
  Server server(opts);

  struct Case {
    const char* line;
    const char* code;
  };
  const Case cases[] = {
      // Truncated line (as the connection loop would hand it over).
      {R"({"op":"solve","solver":"greedy")", "bad_request"},
      {"not json at all", "bad_request"},
      {R"({"solver":"greedy","graphs":[]})", "bad_request"},  // no op
      {R"({"op":"frobnicate"})", "bad_request"},
      {R"({"op":"solve","solver":"no-such-solver","graphs":[]})", "unknown_solver"},
      {R"({"op":"solve","solver":"greedy"})", "bad_request"},  // no graphs
      {R"({"op":"solve","solver":"greedy","graphs":[{"edges":[[0,0]]}]})", "bad_request"},
      // Undeclared option: registry-level RequestError -> bad_request.
      {R"({"op":"solve","solver":"greedy","options":{"bogus":1},"graphs":[]})",
       "bad_request"},
      // Option with a non-scalar value.
      {R"({"op":"solve","solver":"greedy","options":{"t":[1]},"graphs":[]})",
       "bad_request"},
      // measure_traffic on a centralized-only solver.
      {R"({"op":"solve","solver":"greedy","measure_traffic":true,"graphs":[]})",
       "bad_request"},
      // Oversized graph and oversized batch.
      {R"({"op":"solve","solver":"greedy","graphs":[{"n":11,"edges":[]}]})",
       "bad_request"},
      {R"({"op":"solve","solver":"greedy","graphs":[{"edges":[]},{"edges":[]},{"edges":[]}]})",
       "bad_request"},
      {R"({"op":"save_cache"})", "bad_request"},  // no path
      // Confinement: clients name snapshots, never filesystem locations.
      {R"({"op":"save_cache","path":"/etc/passwd"})", "bad_request"},
      {R"({"op":"load_cache","path":"../../outside.bin"})", "bad_request"},
      {R"({"op":"save_cache","path":""})", "bad_request"},
      {R"({"op":"load_cache","path":"nonexistent_subdir/snap.bin"})", "io_error"},
  };
  for (const Case& c : cases) {
    const JsonValue response = json_parse(server.handle_line(c.line));
    EXPECT_FALSE(response.find("ok")->as_bool()) << c.line;
    EXPECT_EQ(response.find("code")->as_string(), c.code) << c.line;
    EXPECT_FALSE(response.find("error")->as_string().empty()) << c.line;
  }
  EXPECT_FALSE(server.stopping()) << "error handling must not stop the server";
}

TEST(ServerCore, SolversVerbEnumeratesRegistry) {
  Server server(test_options());
  const JsonValue response = json_parse(server.handle_line(R"({"op":"solvers"})"));
  ASSERT_TRUE(response.find("ok")->as_bool());
  const auto& solvers = response.find("solvers")->as_array();
  EXPECT_EQ(solvers.size(), api::Registry::instance().specs().size());
  bool saw_algorithm1 = false;
  for (const auto& s : solvers) {
    if (s.find("name")->as_string() == "algorithm1") {
      saw_algorithm1 = true;
      bool saw_t = false;
      for (const auto& p : s.find("params")->as_array()) {
        if (p.find("name")->as_string() == "t") {
          saw_t = true;
          EXPECT_EQ(p.find("type")->as_string(), "int");
          EXPECT_EQ(p.find("default")->as_int(), 5);
        }
      }
      EXPECT_TRUE(saw_t);
    }
  }
  EXPECT_TRUE(saw_algorithm1);
}

TEST(ServerCore, StatsVerbCountsWork) {
  Server server(test_options());
  (void)server.handle_line("{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":" +
                           graphs_json(suite()) + "}");
  const JsonValue stats = json_parse(server.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("server")->find("graphs_solved")->as_int(),
            static_cast<std::int64_t>(suite().size()));
  EXPECT_EQ(stats.find("server")->find("requests")->as_int(), 2);
  EXPECT_EQ(stats.find("cache")->find("misses")->as_int(),
            static_cast<std::int64_t>(suite().size()));
}

TEST(ServerCore, ShutdownVerbStops) {
  Server server(test_options());
  const JsonValue response = json_parse(server.handle_line(R"({"op":"shutdown"})"));
  EXPECT_TRUE(response.find("ok")->as_bool());
  EXPECT_TRUE(server.stopping());
}

// ---------------------------------------------------------------------------
// Cache snapshot persistence: the restart story

TEST(ServerCore, SnapshotSaveLoadWarmHitAcrossServerInstances) {
  // The verb takes a name relative to the server's snapshot_dir (TempDir
  // in test_options); temp_path() is where it lands on disk.
  const std::string path = "lmds_server_snapshot.bin";
  const std::string solve_line = "{\"op\":\"solve\",\"solver\":\"algorithm1\","
                                 "\"measure_ratio\":true,\"graphs\":" +
                                 graphs_json(suite()) + "}";
  // The encoded "responses" payload (everything before the diag member,
  // which legitimately differs between a cold and a warm run).
  const auto payload_of = [](const std::string& line) {
    return line.substr(0, line.find("\"diag\""));
  };
  std::string cold_payload;
  {
    Server first(test_options());
    const std::string cold_line = first.handle_line(solve_line);
    cold_payload = payload_of(cold_line);
    const JsonValue cold = json_parse(cold_line);
    ASSERT_TRUE(cold.find("ok")->as_bool());
    EXPECT_EQ(cold.find("diag")->find("cache_hits")->as_int(), 0);
    const JsonValue saved = json_parse(
        first.handle_line("{\"op\":\"save_cache\",\"path\":\"" + path + "\"}"));
    ASSERT_TRUE(saved.find("ok")->as_bool());
    EXPECT_EQ(saved.find("entries")->as_int(), static_cast<std::int64_t>(suite().size()));
  }
  {
    // A brand-new server (fresh executor, empty cache) warms from the file
    // and answers the replayed batch from cache, byte-identically.
    Server second(test_options());
    const JsonValue loaded = json_parse(
        second.handle_line("{\"op\":\"load_cache\",\"path\":\"" + path + "\"}"));
    ASSERT_TRUE(loaded.find("ok")->as_bool());
    const std::string warm_line = second.handle_line(solve_line);
    const JsonValue warm = json_parse(warm_line);
    ASSERT_TRUE(warm.find("ok")->as_bool());
    EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(),
              static_cast<std::int64_t>(suite().size()));
    EXPECT_EQ(warm.find("diag")->find("cache_misses")->as_int(), 0);
    EXPECT_EQ(payload_of(warm_line), cold_payload);
  }
  std::remove(temp_path(path).c_str());
}

TEST(ServerCore, SnapshotVerbsDisabledWithoutSnapshotDir) {
  ServerOptions opts = test_options();
  opts.core.snapshot_dir.clear();
  Server server(opts);
  const JsonValue response = json_parse(
      server.handle_line(R"({"op":"save_cache","path":"x.bin"})"));
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("code")->as_string(), "bad_request");
}

TEST(ServerCore, CorruptSnapshotIsRejectedWithoutClearingCache) {
  const std::string path = "lmds_server_corrupt.bin";
  {
    std::ofstream out(temp_path(path), std::ios::binary);
    out << "this is not a snapshot";
  }
  Server server(test_options());
  (void)server.handle_line("{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":" +
                           graphs_json(suite()) + "}");
  const JsonValue response = json_parse(
      server.handle_line("{\"op\":\"load_cache\",\"path\":\"" + path + "\"}"));
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("code")->as_string(), "io_error");
  // The live cache survived the failed load: the replay still hits.
  const JsonValue warm = json_parse(
      server.handle_line("{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":" +
                         graphs_json(suite()) + "}"));
  EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(),
            static_cast<std::int64_t>(suite().size()));
  std::remove(temp_path(path).c_str());
}

// ---------------------------------------------------------------------------
// Protocol v2: graph handles, namespaces, per-request overrides

TEST(ServerCore, V1InlineSolveResponseShapeUnchanged) {
  // The back-compat contract: a request that names no v2 field is answered
  // exactly as PR 4 answered it — same member order, no "namespace" member.
  Server server(test_options());
  const std::string line = "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":" +
                           graphs_json(suite()) + "}";
  const std::string response = server.handle_line(line);
  EXPECT_TRUE(response.starts_with("{\"ok\":true,\"op\":\"solve\",\"responses\":["));
  EXPECT_EQ(response.find("\"namespace\""), std::string::npos);
  const JsonValue parsed = json_parse(response);
  ASSERT_TRUE(parsed.find("ok")->as_bool());
  EXPECT_EQ(parsed.find("responses")->as_array().size(), suite().size());
}

TEST(ServerCore, SolveByHandleMatchesInlineSolve) {
  Server server(test_options());
  const std::vector<Graph> gs = suite();

  // Upload every graph; solve by handle; compare with the inline payload
  // from a second, independent server (so cache diag differences in this
  // server cannot mask a payload difference).
  std::string handles = "[";
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const JsonValue put = json_parse(server.handle_line(
        "{\"op\":\"put_graph\",\"graph\":" + graphs_json({gs[i]}).substr(1,
            graphs_json({gs[i]}).size() - 2) + "}"));
    ASSERT_TRUE(put.find("ok")->as_bool());
    EXPECT_TRUE(put.find("new")->as_bool());
    if (i) handles += ',';
    handles += '"' + put.find("handle")->as_string() + '"';
  }
  handles += ']';

  const auto payload_of = [](const std::string& line) {
    return line.substr(0, line.find("\"diag\""));
  };
  const std::string by_handle = server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"measure_ratio\":true,\"graphs\":" +
      handles + "}");
  Server fresh(test_options());
  const std::string inline_solve = fresh.handle_line(
      "{\"op\":\"solve\",\"solver\":\"theorem44\",\"measure_ratio\":true,\"graphs\":" +
      graphs_json(gs) + "}");
  EXPECT_EQ(payload_of(by_handle), payload_of(inline_solve));
}

TEST(ServerCore, MixedHandleAndInlineBatchAnswersInOrder) {
  Server server(test_options());
  const Graph path = graph::gen::path(8);
  const Graph cycle = graph::gen::cycle(7);
  const JsonValue put = json_parse(server.handle_line(
      "{\"op\":\"put_graph\",\"graph\":{\"n\":8,\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],"
      "[5,6],[6,7]]}}"));
  ASSERT_TRUE(put.find("ok")->as_bool());
  const std::string handle = put.find("handle")->as_string();

  const JsonValue mixed = json_parse(server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"," +
      graphs_json({cycle}).substr(1, graphs_json({cycle}).size() - 2) + "]}"));
  ASSERT_TRUE(mixed.find("ok")->as_bool());
  const auto& responses = mixed.find("responses")->as_array();
  ASSERT_EQ(responses.size(), 2u);

  api::Request req;
  const auto direct_path = api::Registry::instance().run_batch("greedy", {&path, 1}, req);
  const auto direct_cycle = api::Registry::instance().run_batch("greedy", {&cycle, 1}, req);
  EXPECT_EQ(responses[0].find("solution")->as_array().size(),
            direct_path[0].solution.size());
  EXPECT_EQ(responses[1].find("solution")->as_array().size(),
            direct_cycle[0].solution.size());
}

TEST(ServerCore, PutGraphIsContentAddressed) {
  Server server(test_options());
  const std::string put_line =
      "{\"op\":\"put_graph\",\"graph\":{\"n\":4,\"edges\":[[0,1],[1,2],[2,3]]}}";
  const JsonValue first = json_parse(server.handle_line(put_line));
  ASSERT_TRUE(first.find("ok")->as_bool());
  EXPECT_TRUE(first.find("new")->as_bool());
  EXPECT_EQ(first.find("n")->as_int(), 4);
  EXPECT_EQ(first.find("m")->as_int(), 3);
  const JsonValue second = json_parse(server.handle_line(put_line));
  EXPECT_FALSE(second.find("new")->as_bool());
  EXPECT_EQ(second.find("handle")->as_string(), first.find("handle")->as_string());
}

TEST(ServerCore, HandleErrorPaths) {
  ServerOptions opts = test_options();
  opts.core.limits.max_graph_vertices = 10;
  opts.core.store_capacity = 1;
  Server server(opts);

  // Well-formed but never-uploaded handle: unknown_handle.
  const JsonValue unknown = json_parse(server.handle_line(
      R"({"op":"solve","solver":"greedy","graphs":["g0123456789abcdef"]})"));
  EXPECT_FALSE(unknown.find("ok")->as_bool());
  EXPECT_EQ(unknown.find("code")->as_string(), "unknown_handle");

  // Malformed handle spelling: caught at decode as bad_request.
  const JsonValue malformed = json_parse(server.handle_line(
      R"({"op":"solve","solver":"greedy","graphs":["not-a-handle"]})"));
  EXPECT_EQ(malformed.find("code")->as_string(), "bad_request");

  // Oversized put_graph: the same limit inline solve graphs obey.
  const JsonValue oversized = json_parse(server.handle_line(
      R"({"op":"put_graph","graph":{"n":11,"edges":[]}})"));
  EXPECT_EQ(oversized.find("code")->as_string(), "bad_request");

  // put -> drop -> solve: the dropped-and-evicted handle is unknown. With
  // store capacity 1, putting a second graph evicts the unpinned first.
  const JsonValue put = json_parse(server.handle_line(
      R"({"op":"put_graph","graph":{"n":3,"edges":[[0,1],[1,2]]}})"));
  ASSERT_TRUE(put.find("ok")->as_bool());
  const std::string handle = put.find("handle")->as_string();
  const JsonValue dropped = json_parse(server.handle_line(
      "{\"op\":\"drop_graph\",\"handle\":\"" + handle + "\"}"));
  EXPECT_TRUE(dropped.find("ok")->as_bool());
  (void)server.handle_line(R"({"op":"put_graph","graph":{"n":2,"edges":[[0,1]]}})");
  const JsonValue gone = json_parse(server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}"));
  EXPECT_EQ(gone.find("code")->as_string(), "unknown_handle");

  // drop of a never-stored handle: unknown_handle.
  const JsonValue redrop = json_parse(server.handle_line(
      R"({"op":"drop_graph","handle":"g0123456789abcdef"})"));
  EXPECT_EQ(redrop.find("code")->as_string(), "unknown_handle");

  // Store full (capacity 1, one pinned graph): server_busy, retryable.
  const JsonValue full = json_parse(server.handle_line(
      R"({"op":"put_graph","graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4]]}})"));
  EXPECT_FALSE(full.find("ok")->as_bool());
  EXPECT_EQ(full.find("code")->as_string(), "server_busy");

  // A zero-capacity store is *disabled*, not busy: no drop can ever free
  // room, so telling the client to retry would be a lie.
  ServerOptions disabled = test_options();
  disabled.core.store_capacity = 0;
  Server no_store(disabled);
  const JsonValue off = json_parse(no_store.handle_line(
      R"({"op":"put_graph","graph":{"n":2,"edges":[[0,1]]}})"));
  EXPECT_EQ(off.find("code")->as_string(), "bad_request");
}

TEST(ServerCore, NamespacesIsolateCacheEntries) {
  // open_session state is per-Session (one per connection); Server's own
  // handle_line is deliberately stateless, so this test holds a Session.
  ServerOptions all_ns = test_options();
  all_ns.core.stats_all_namespaces = true;  // operator mode: full stats map
  Server server(all_ns);
  Session session(server.core());
  const std::string solve = "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":" +
                            graphs_json(suite()) + "}";
  const auto hits_of = [&](const std::string& line) {
    return json_parse(session.handle_line(line)).find("diag")->find("cache_hits")->as_int();
  };
  const auto n = static_cast<std::int64_t>(suite().size());

  // Default namespace: second identical solve is all hits.
  EXPECT_EQ(hits_of(solve), 0);
  EXPECT_EQ(hits_of(solve), n);

  // Same graphs+solver under open_session "tenant-a": cold again.
  const JsonValue opened = json_parse(session.handle_line(
      R"({"op":"open_session","namespace":"tenant-a"})"));
  ASSERT_TRUE(opened.find("ok")->as_bool());
  EXPECT_EQ(opened.find("namespace")->as_string(), "tenant-a");
  EXPECT_EQ(hits_of(solve), 0);
  EXPECT_EQ(hits_of(solve), n);

  // A per-request "namespace" field overrides the session's choice, and the
  // response echoes it. (A stateless Server::handle_line call reaches the
  // same cache — the namespaces live in the shared core, not the session.)
  const std::string in_b = "{\"op\":\"solve\",\"solver\":\"greedy\",\"namespace\":\"tenant-b\","
                           "\"graphs\":" + graphs_json(suite()) + "}";
  const JsonValue b_cold = json_parse(server.handle_line(in_b));
  EXPECT_EQ(b_cold.find("diag")->find("cache_hits")->as_int(), 0);
  EXPECT_EQ(b_cold.find("namespace")->as_string(), "tenant-b");

  // Back to the default namespace: still warm from the first pass.
  (void)session.handle_line(R"({"op":"open_session"})");
  EXPECT_EQ(hits_of(solve), n);

  // Stats reports all three namespaces with their own counters.
  const JsonValue stats = json_parse(server.handle_line(R"({"op":"stats"})"));
  const JsonValue* namespaces = stats.find("namespaces");
  ASSERT_NE(namespaces, nullptr);
  EXPECT_EQ(namespaces->find("")->find("hits")->as_int(), 2 * n);
  EXPECT_EQ(namespaces->find("tenant-a")->find("hits")->as_int(), n);
  EXPECT_EQ(namespaces->find("tenant-a")->find("misses")->as_int(), n);
  EXPECT_EQ(namespaces->find("tenant-b")->find("misses")->as_int(), n);
  EXPECT_EQ(namespaces->find("tenant-b")->find("size")->as_int(), n);

  // Bad namespaces are rejected at decode; the length cap is inclusive.
  const auto open_session = [&](std::size_t ns_bytes) {
    return json_parse(server.handle_line("{\"op\":\"open_session\",\"namespace\":\"" +
                                         std::string(ns_bytes, 'x') + "\"}"));
  };
  EXPECT_TRUE(open_session(128).find("ok")->as_bool());
  for (const std::size_t too_long : {129, 300}) {
    EXPECT_EQ(open_session(too_long).find("code")->as_string(), "bad_request") << too_long;
  }

  // Without the operator flag, stats must not leak other tenants' tags —
  // knowing a tag is all it takes to read that tenant's warm cache. A
  // default-namespace caller sees only its own slice.
  Server guarded(test_options());
  (void)guarded.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"namespace\":\"tenant-secret\",\"graphs\":" +
      graphs_json(suite()) + "}");
  const JsonValue guarded_stats = json_parse(guarded.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(guarded_stats.find("namespaces")->find("tenant-secret"), nullptr);
}

TEST(ServerCore, PerRequestBatchOverrides) {
  Server server(test_options());  // configured threads=2, shard_size=1
  const std::string graphs = graphs_json(suite());

  // threads/shard_size overrides are reflected in the batch diagnostics.
  const JsonValue overridden = json_parse(server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"threads\":1,\"shard_size\":4},"
      "\"graphs\":" + graphs + "}"));
  ASSERT_TRUE(overridden.find("ok")->as_bool());
  EXPECT_EQ(overridden.find("diag")->find("threads")->as_int(), 1);
  EXPECT_EQ(overridden.find("diag")->find("shards")->as_int(),
            static_cast<std::int64_t>((suite().size() + 3) / 4));

  // no_cache computes fresh: the warm repeat still reports zero hits and
  // zero misses (nothing read, nothing written).
  const JsonValue bypass = json_parse(server.handle_line(
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"batch\":{\"no_cache\":true},\"graphs\":" +
      graphs + "}"));
  EXPECT_EQ(bypass.find("diag")->find("cache_hits")->as_int(), 0);
  EXPECT_EQ(bypass.find("diag")->find("cache_misses")->as_int(), 0);

  // Override validation: the thread caps are inclusive; out-of-range and
  // unknown keys are bad requests.
  for (const char* good : {
           R"({"op":"solve","solver":"greedy","batch":{"threads":64},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":{"intra_threads":64},"graphs":[]})",
       }) {
    EXPECT_TRUE(json_parse(server.handle_line(good)).find("ok")->as_bool()) << good;
  }
  for (const char* bad : {
           R"({"op":"solve","solver":"greedy","batch":{"threads":0},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":{"threads":65},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":{"intra_threads":65},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":{"threads":100000},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":{"shard_size":0},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":{"frobnicate":1},"graphs":[]})",
           R"({"op":"solve","solver":"greedy","batch":7,"graphs":[]})",
       }) {
    const JsonValue response = json_parse(server.handle_line(bad));
    EXPECT_FALSE(response.find("ok")->as_bool()) << bad;
    EXPECT_EQ(response.find("code")->as_string(), "bad_request") << bad;
  }
}

TEST(ServerCore, StatsReportsStoreAndUptime) {
  Server server(test_options());
  (void)server.handle_line(R"({"op":"put_graph","graph":{"n":3,"edges":[[0,1],[1,2]]}})");
  const JsonValue stats = json_parse(server.handle_line(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const JsonValue* store = stats.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->find("graphs")->as_int(), 1);
  EXPECT_EQ(store->find("pinned")->as_int(), 1);
  EXPECT_EQ(store->find("puts")->as_int(), 1);
  EXPECT_GE(stats.find("server")->find("uptime_seconds")->as_double(), 0.0);
  EXPECT_EQ(stats.find("server")->find("rejected_connections")->as_int(), 0);
}

// ---------------------------------------------------------------------------
// HTTP front-end, socket-free: routing, status mapping, namespace header

int http_status(const std::string& response) {
  return std::atoi(response.c_str() + sizeof("HTTP/1.1 ") - 1);
}

std::string http_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

HttpRequest make_http(std::string method, std::string target, std::string body,
                      std::string ns = {}) {
  HttpRequest req;
  req.method = std::move(method);
  req.target = std::move(target);
  req.body = std::move(body);
  req.ns = std::move(ns);
  return req;
}

// ---------------------------------------------------------------------------
// Warm replies: every element spliced from its cache entry's memo

// The solve line for suite() with `solver`, optional ratio and namespace.
std::string suite_solve_line(std::string_view solver, bool ratio, std::string_view ns) {
  std::string line = "{\"op\":\"solve\",\"solver\":\"" + std::string(solver) + "\"";
  if (ratio) line += ",\"measure_ratio\":true";
  if (!ns.empty()) line += ",\"namespace\":\"" + std::string(ns) + "\"";
  return line + ",\"graphs\":" + graphs_json(suite()) + "}";
}

// The diag of an all-hit suite() batch under test_options(): sized for 2
// workers over 4 one-graph shards, run on the calling thread.
api::BatchDiagnostics warm_suite_diag() {
  api::BatchDiagnostics diag;
  diag.threads = 2;
  diag.shards = static_cast<int>(suite().size());
  diag.cache_hits = suite().size();
  return diag;
}

TEST(WarmReplies, EqualAFreshEncodeOverLineAndHttp) {
  const std::vector<Graph> gs = suite();
  const auto payload_of = [](const std::string& line) {
    return line.substr(0, line.find("\"diag\""));
  };
  for (const bool http : {false, true}) {
    Server server(test_options(256));
    Session session(server.core());
    for (const char* solver : {"theorem44", "theorem44-mvc", "greedy", "ksv"}) {
      for (const bool ratio : {false, true}) {
        for (const std::string ns : {"", "tenant-a"}) {
          // Over HTTP the namespace rides in the header, as clients send it.
          const std::string line = suite_solve_line(solver, ratio, http ? "" : ns);
          const auto send = [&] {
            return http ? http_body(handle_http_request(
                              make_http("POST", "/v2/solve", line, ns), session))
                        : session.handle_line(line);
          };
          api::Request req;
          req.measure_ratio = ratio;
          const std::vector<api::Response> direct =
              api::Registry::instance().run_batch(solver, {gs.data(), gs.size()}, req);
          const std::string expected =
              encode_solve_result({direct.data(), direct.size()}, warm_suite_diag(), ns);
          const std::string context = std::string(solver) + " ratio=" +
                                      std::to_string(ratio) + " ns=" + ns +
                                      (http ? " http" : " line");
          const std::string cold = send();
          EXPECT_EQ(payload_of(cold), payload_of(expected)) << context;
          EXPECT_EQ(send(), expected) << context;  // first hit: encodes the memo
          EXPECT_EQ(send(), expected) << context;  // later hits: splice it
        }
      }
    }
  }
}

TEST(WarmReplies, LoadCacheAndReplicateInReplayTheSourceBytes) {
  const std::string path = "lmds_warm_replies.bin";
  const std::vector<std::string> lines = {suite_solve_line("theorem44", true, ""),
                                          suite_solve_line("greedy", false, "tenant-a")};
  Server source(test_options());
  std::vector<std::string> source_warm;
  for (const std::string& line : lines) {
    (void)source.handle_line(line);
    source_warm.push_back(source.handle_line(line));
  }
  ASSERT_TRUE(json_parse(source.handle_line("{\"op\":\"save_cache\",\"path\":\"" + path +
                                            "\"}"))
                  .find("ok")
                  ->as_bool());
  JsonValue::Object payload =
      json_parse(source.handle_line(R"({"op":"replicate_out"})")).as_object();
  payload.insert_or_assign("op", JsonValue(std::string("replicate_in")));
  const std::string replicate_in = json_dump(JsonValue(std::move(payload)));

  Server loaded(test_options());
  ASSERT_TRUE(json_parse(loaded.handle_line("{\"op\":\"load_cache\",\"path\":\"" + path +
                                            "\"}"))
                  .find("ok")
                  ->as_bool());
  Server replica(test_options());
  ASSERT_TRUE(json_parse(replica.handle_line(replicate_in)).find("ok")->as_bool());
  for (Server* target : {&loaded, &replica}) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(target->handle_line(lines[i]), source_warm[i]) << "first warm reply " << i;
      EXPECT_EQ(target->handle_line(lines[i]), source_warm[i]) << "second warm reply " << i;
    }
  }
  std::remove(temp_path(path).c_str());
}

TEST(Http, RoutesMapOntoProtocolVerbsWithStatuses) {
  CoreOptions core_opts;
  core_opts.batch.threads = 1;
  core_opts.batch.shard_size = 1;
  core_opts.batch.cache_capacity = 64;
  core_opts.snapshot_dir.clear();
  ServerCore core(core_opts, api::Registry::instance());
  Session session(core);

  // GET /v2/solvers: the registry enumeration, 200.
  std::string response =
      handle_http_request(make_http("GET", "/v2/solvers", ""), session);
  EXPECT_EQ(http_status(response), 200);
  EXPECT_EQ(json_parse(http_body(response)).find("solvers")->as_array().size(),
            api::Registry::instance().specs().size());

  // PUT /v2/graphs: 201 on first upload, 200 on content-addressed re-put.
  const std::string graph = R"({"n":4,"edges":[[0,1],[1,2],[2,3]]})";
  response = handle_http_request(make_http("PUT", "/v2/graphs", graph), session);
  EXPECT_EQ(http_status(response), 201);
  const std::string handle = json_parse(http_body(response)).find("handle")->as_string();
  response = handle_http_request(make_http("PUT", "/v2/graphs", graph), session);
  EXPECT_EQ(http_status(response), 200);

  // POST /v2/solve by handle; the repeat is a warm hit.
  const std::string solve = "{\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}";
  response = handle_http_request(make_http("POST", "/v2/solve", solve), session);
  EXPECT_EQ(http_status(response), 200);
  EXPECT_EQ(json_parse(http_body(response)).find("diag")->find("cache_hits")->as_int(), 0);
  response = handle_http_request(make_http("POST", "/v2/solve", solve), session);
  EXPECT_EQ(json_parse(http_body(response)).find("diag")->find("cache_hits")->as_int(), 1);

  // The namespace header isolates the cache like open_session does, and the
  // body echoes the namespace.
  response = handle_http_request(make_http("POST", "/v2/solve", solve, "tenant-a"), session);
  EXPECT_EQ(json_parse(http_body(response)).find("diag")->find("cache_hits")->as_int(), 0);
  EXPECT_EQ(json_parse(http_body(response)).find("namespace")->as_string(), "tenant-a");

  // DELETE /v2/graphs/<handle>: one drop per put (the graph was PUT twice,
  // so the refcount is 2); a drop with nothing left to release is 404.
  response = handle_http_request(make_http("DELETE", "/v2/graphs/" + handle, ""), session);
  EXPECT_EQ(http_status(response), 200);
  response = handle_http_request(make_http("DELETE", "/v2/graphs/" + handle, ""), session);
  EXPECT_EQ(http_status(response), 200);
  response = handle_http_request(make_http("DELETE", "/v2/graphs/" + handle, ""), session);
  EXPECT_EQ(http_status(response), 404);
  EXPECT_EQ(json_parse(http_body(response)).find("code")->as_string(), "unknown_handle");

  // Error statuses: unknown solver 404, malformed body 400, bad route 404,
  // GET on a POST route 404.
  response = handle_http_request(
      make_http("POST", "/v2/solve", R"({"solver":"nope","graphs":[]})"), session);
  EXPECT_EQ(http_status(response), 404);
  EXPECT_EQ(json_parse(http_body(response)).find("code")->as_string(), "unknown_solver");
  response = handle_http_request(make_http("POST", "/v2/solve", "{oops"), session);
  EXPECT_EQ(http_status(response), 400);
  response = handle_http_request(make_http("GET", "/v2/frobnicate", ""), session);
  EXPECT_EQ(http_status(response), 404);
  response = handle_http_request(make_http("GET", "/v2/solve", ""), session);
  EXPECT_EQ(http_status(response), 404);
  response = handle_http_request(
      make_http("POST", "/v2/solve", solve, std::string(kMaxNamespaceBytes + 1, 'n')),
      session);
  EXPECT_EQ(http_status(response), 400);  // namespace header over the limit
  EXPECT_EQ(json_parse(http_body(response)).find("code")->as_string(), "bad_request");

  // GET /v2/stats carries the same body as the stats verb.
  response = handle_http_request(make_http("GET", "/v2/stats", ""), session);
  EXPECT_EQ(http_status(response), 200);
  EXPECT_GE(json_parse(http_body(response)).find("server")->find("uptime_seconds")
                ->as_double(), 0.0);
  EXPECT_FALSE(core.stopping());
}

TEST(Http, ServerBusyIs503AndSolverFailureIs500) {
  api::Registry registry;
  registry.add({.name = "boom",
                .problem = api::Problem::Mds,
                .summary = "always throws",
                .params = {}},
               [](const api::SolveContext&) -> api::SolverOutput {
                 throw std::runtime_error("boom");
               });
  CoreOptions core_opts;
  core_opts.batch.threads = 1;
  core_opts.store_capacity = 2;
  core_opts.snapshot_dir.clear();
  ServerCore core(core_opts, registry);
  Session session(core);

  // A store at capacity with every entry pinned answers a new put busy.
  for (const Graph& g : {graph::gen::path(3), graph::gen::path(4)}) {
    const std::string response =
        handle_http_request(make_http("PUT", "/v2/graphs", encode_graph_json(g)), session);
    ASSERT_EQ(http_status(response), 201) << response;
  }
  std::string response = handle_http_request(
      make_http("PUT", "/v2/graphs", encode_graph_json(graph::gen::path(5))), session);
  EXPECT_EQ(http_status(response), 503);
  EXPECT_EQ(error_code_of(http_body(response)), ErrorCode::ServerBusy);

  response = handle_http_request(
      make_http("POST", "/v2/solve", R"({"solver":"boom","graphs":[{"edges":[[0,1]]}]})"),
      session);
  EXPECT_EQ(http_status(response), 500);
  EXPECT_EQ(error_code_of(http_body(response)), ErrorCode::SolverFailure);
}

// ---------------------------------------------------------------------------
// Real TCP round-trip over loopback

TEST(ServerSocket, EndToEndSolveAndShutdown) {
  ServerOptions opts = test_options();
  opts.port = 0;  // ephemeral
  Server server(opts);
  server.bind_and_listen();
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { server.serve(); });

  const int fd = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);
  const auto exchange = [&](const std::string& line) {
    EXPECT_TRUE(send_all(fd, line + "\n"));
    const auto response = reader.next_line(1u << 20);
    EXPECT_TRUE(response.has_value());
    return json_parse(response.value_or("null"));
  };

  const JsonValue solvers = exchange(R"({"op":"solvers"})");
  EXPECT_TRUE(solvers.find("ok")->as_bool());

  const JsonValue solved = exchange("{\"op\":\"solve\",\"solver\":\"theorem44\",\"graphs\":" +
                                    graphs_json(suite()) + "}");
  ASSERT_TRUE(solved.find("ok")->as_bool());
  EXPECT_EQ(solved.find("responses")->as_array().size(), suite().size());

  const JsonValue bad = exchange(R"({"op":"solve","solver":"nope","graphs":[]})");
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("code")->as_string(), "unknown_solver");

  const JsonValue down = exchange(R"({"op":"shutdown"})");
  EXPECT_TRUE(down.find("ok")->as_bool());
  serving.join();
  close_fd(fd);
  EXPECT_EQ(server.counters().connections, 1u);
}

// LineReader resumes its newline search where the previous scan stopped;
// the framing must survive that: a long line in small pieces, several lines
// in one read, CRLF, and the over-limit cut-off.
TEST(LineReader, FramesLinesAcrossAndWithinReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string big(1u << 20, 'x');
  std::thread writer([&] {
    for (std::size_t at = 0; at < big.size(); at += 4096) {
      EXPECT_TRUE(send_all(fds[1], std::string_view(big).substr(at, 4096)));
    }
    EXPECT_TRUE(send_all(fds[1], "\n"));
    EXPECT_TRUE(send_all(fds[1], "first\nsecond\n"));  // two lines, one write
    EXPECT_TRUE(send_all(fds[1], "crlf\r\n"));
  });
  LineReader reader(fds[0]);
  EXPECT_EQ(reader.next_line(2u << 20), big);
  EXPECT_EQ(reader.next_line(1024), "first");
  EXPECT_EQ(reader.next_line(1024), "second");
  EXPECT_EQ(reader.next_line(1024), "crlf");
  writer.join();
  close_fd(fds[1]);
  EXPECT_FALSE(reader.next_line(1024).has_value());  // EOF
  EXPECT_FALSE(reader.oversized());
  close_fd(fds[0]);
}

TEST(LineReader, OverLimitLineSetsOversized) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // 10 KB in 1 KB writes and no newline: past the 4 KB limit after a few
  // reads, however the kernel coalesces them.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(send_all(fds[1], std::string(1000, 'y')));
  LineReader reader(fds[0]);
  EXPECT_FALSE(reader.next_line(4096).has_value());
  EXPECT_TRUE(reader.oversized());
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(LineReader, UnterminatedTailBeforeEofIsALine) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(send_all(fds[1], "head\ntail"));
  close_fd(fds[1]);
  LineReader reader(fds[0]);
  EXPECT_EQ(reader.next_line(1024), "head");
  EXPECT_EQ(reader.next_line(1024), "tail");
  EXPECT_FALSE(reader.next_line(1024).has_value());
  EXPECT_FALSE(reader.timed_out());
  close_fd(fds[0]);
}

TEST(LineReader, ReadExactTakesTheBufferedRemainderFirst) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // The header line and the start of the body arrive in one read; the rest
  // of the body comes later.
  ASSERT_TRUE(send_all(fds[1], "Content-Length: 10\n0123"));
  LineReader reader(fds[0]);
  EXPECT_EQ(reader.next_line(1024), "Content-Length: 10");
  ASSERT_TRUE(send_all(fds[1], "456789next\n"));
  EXPECT_EQ(reader.read_exact(10), "0123456789");
  EXPECT_EQ(reader.next_line(1024), "next");
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(LineReader, ReadExactOnASilentPeerTimesOut) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(set_io_timeout(fds[0], 50));
  ASSERT_TRUE(send_all(fds[1], "abc"));
  LineReader reader(fds[0]);
  EXPECT_FALSE(reader.read_exact(10).has_value());
  EXPECT_TRUE(reader.timed_out());  // the peer is alive, only quiet
  ASSERT_TRUE(send_all(fds[1], "defghij"));
  EXPECT_EQ(reader.read_exact(10), "abcdefghij");  // nothing was lost
  EXPECT_FALSE(reader.timed_out());
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(LineReader, ReadExactWhenThePeerClosesMidBody) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(set_io_timeout(fds[0], 5000));
  ASSERT_TRUE(send_all(fds[1], "abc"));
  close_fd(fds[1]);
  LineReader reader(fds[0]);
  EXPECT_FALSE(reader.read_exact(10).has_value());
  EXPECT_FALSE(reader.timed_out());  // a close, not silence
  close_fd(fds[0]);
}

TEST(TcpConnect, RefusedPortAndNonNumericHostSetErrno) {
  // An ephemeral port that was bound and closed without listening: nothing
  // accepts there, so the kernel refuses the handshake.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  close_fd(probe);

  for (const int timeout_ms : {0, 100}) {
    errno = 0;
    EXPECT_EQ(tcp_connect("127.0.0.1", port, timeout_ms), -1) << timeout_ms;
    EXPECT_EQ(errno, ECONNREFUSED) << timeout_ms;
    errno = 0;
    EXPECT_EQ(tcp_connect("not-an-ip", port, timeout_ms), -1) << timeout_ms;
    EXPECT_EQ(errno, EINVAL) << timeout_ms;
  }
}

TEST(ServerSocket, OversizedLineIsRejectedAndConnectionDropped) {
  ServerOptions opts = test_options();
  opts.port = 0;
  opts.core.limits.max_line_bytes = 256;
  Server server(opts);
  server.bind_and_listen();
  std::thread serving([&] { server.serve(); });

  const int fd = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(fd, 0);
  const std::string huge(4096, 'x');  // no newline within the limit
  EXPECT_TRUE(send_all(fd, huge));
  LineReader reader(fd);
  const auto response = reader.next_line(1u << 20);
  ASSERT_TRUE(response.has_value());
  const JsonValue parsed = json_parse(*response);
  EXPECT_FALSE(parsed.find("ok")->as_bool());
  EXPECT_EQ(parsed.find("code")->as_string(), "bad_request");
  // The server dropped the connection after reporting.
  EXPECT_FALSE(reader.next_line(1u << 20).has_value());
  close_fd(fd);

  server.request_stop();
  serving.join();
}

// One HTTP exchange over a real socket; returns {status, parsed body}.
std::pair<int, JsonValue> http_socket_exchange(int fd, LineReader& reader,
                                               const std::string& method,
                                               const std::string& target,
                                               const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  EXPECT_TRUE(send_all(fd, request));
  const auto status_line = reader.next_line(1u << 16);
  EXPECT_TRUE(status_line.has_value());
  const int status = std::atoi(status_line->c_str() + sizeof("HTTP/1.1 ") - 1);
  std::size_t content_length = 0;
  while (true) {
    const auto header = reader.next_line(1u << 16);
    EXPECT_TRUE(header.has_value());
    if (!header || header->empty()) break;
    if (header->starts_with("Content-Length: ")) {
      content_length = static_cast<std::size_t>(
          std::atoll(header->c_str() + sizeof("Content-Length: ") - 1));
    }
  }
  const auto payload = reader.read_exact(content_length);
  EXPECT_TRUE(payload.has_value());
  return {status, json_parse(payload.value_or("null"))};
}

TEST(ServerSocket, HttpPutSolveWarmHitStatsShutdown) {
  ServerOptions opts = test_options();
  opts.port = 0;
  opts.http_port = 0;  // second listener, ephemeral
  Server server(opts);
  server.bind_and_listen();
  ASSERT_GT(server.http_port(), 0);
  ASSERT_NE(server.http_port(), server.port());
  std::thread serving([&] { server.serve(); });

  const int fd = tcp_connect("127.0.0.1", server.http_port());
  ASSERT_GE(fd, 0);
  LineReader reader(fd);

  // put_graph -> handle (201), solve by handle cold, solve warm (all hits),
  // stats — one keep-alive connection throughout.
  auto [put_status, put] = http_socket_exchange(
      fd, reader, "PUT", "/v2/graphs", R"({"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]]})");
  EXPECT_EQ(put_status, 201);
  ASSERT_TRUE(put.find("ok")->as_bool());
  const std::string handle = put.find("handle")->as_string();

  const std::string solve = "{\"solver\":\"algorithm1\",\"graphs\":[\"" + handle + "\"]}";
  auto [cold_status, cold] = http_socket_exchange(fd, reader, "POST", "/v2/solve", solve);
  EXPECT_EQ(cold_status, 200);
  EXPECT_EQ(cold.find("diag")->find("cache_misses")->as_int(), 1);
  auto [warm_status, warm] = http_socket_exchange(fd, reader, "POST", "/v2/solve", solve);
  EXPECT_EQ(warm_status, 200);
  EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(), 1);

  auto [stats_status, stats] = http_socket_exchange(fd, reader, "GET", "/v2/stats", "");
  EXPECT_EQ(stats_status, 200);
  EXPECT_EQ(stats.find("store")->find("graphs")->as_int(), 1);

  // Expect: 100-continue earns the interim response before the final one
  // (curl sends it for every body over ~1KB; without the interim line such
  // clients stall ~1s per upload).
  const std::string g2 = R"({"n":3,"edges":[[0,1],[1,2]]})";
  EXPECT_TRUE(send_all(fd, "PUT /v2/graphs HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
                           "Content-Length: " + std::to_string(g2.size()) + "\r\n\r\n" + g2));
  const auto interim = reader.next_line(1u << 16);
  ASSERT_TRUE(interim.has_value());
  EXPECT_EQ(*interim, "HTTP/1.1 100 Continue");
  ASSERT_TRUE(reader.next_line(1u << 16).has_value());  // interim terminator
  const auto final_status = reader.next_line(1u << 16);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_TRUE(final_status->starts_with("HTTP/1.1 201"));
  std::size_t expect_body_len = 0;
  while (true) {
    const auto header = reader.next_line(1u << 16);
    ASSERT_TRUE(header.has_value());
    if (header->empty()) break;
    if (header->starts_with("Content-Length: ")) {
      expect_body_len = static_cast<std::size_t>(
          std::atoll(header->c_str() + sizeof("Content-Length: ") - 1));
    }
  }
  ASSERT_TRUE(reader.read_exact(expect_body_len).has_value());

  auto [down_status, down] = http_socket_exchange(fd, reader, "POST", "/v2/shutdown", "");
  EXPECT_EQ(down_status, 200);
  EXPECT_TRUE(down.find("ok")->as_bool());
  serving.join();
  close_fd(fd);
  EXPECT_TRUE(server.stopping());
}

TEST(ServerSocket, LineAndHttpTransportsShareOneCacheAndStore) {
  ServerOptions opts = test_options();
  opts.port = 0;
  opts.http_port = 0;
  Server server(opts);
  server.bind_and_listen();
  std::thread serving([&] { server.serve(); });

  // Upload over HTTP...
  const int hfd = tcp_connect("127.0.0.1", server.http_port());
  ASSERT_GE(hfd, 0);
  LineReader hreader(hfd);
  auto [put_status, put] = http_socket_exchange(
      hfd, hreader, "PUT", "/v2/graphs", R"({"n":4,"edges":[[0,1],[1,2],[2,3]]})");
  EXPECT_EQ(put_status, 201);
  const std::string handle = put.find("handle")->as_string();

  // ...and solve by that handle over the line protocol: the two transports
  // front one store and one cache, so the second solve is a warm hit.
  const int lfd = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(lfd, 0);
  LineReader lreader(lfd);
  const std::string solve =
      "{\"op\":\"solve\",\"solver\":\"greedy\",\"graphs\":[\"" + handle + "\"]}";
  EXPECT_TRUE(send_all(lfd, solve + "\n"));
  const JsonValue cold = json_parse(lreader.next_line(1u << 20).value_or("null"));
  ASSERT_TRUE(cold.find("ok")->as_bool());
  EXPECT_EQ(cold.find("diag")->find("cache_misses")->as_int(), 1);
  EXPECT_TRUE(send_all(lfd, solve + "\n"));
  const JsonValue warm = json_parse(lreader.next_line(1u << 20).value_or("null"));
  EXPECT_EQ(warm.find("diag")->find("cache_hits")->as_int(), 1);

  close_fd(hfd);
  close_fd(lfd);
  server.request_stop();
  serving.join();
}

TEST(ServerSocket, MaxConnectionsRejectsWithServerBusy) {
  ServerOptions opts = test_options();
  opts.port = 0;
  opts.max_connections = 1;
  Server server(opts);
  server.bind_and_listen();
  std::thread serving([&] { server.serve(); });

  // First connection occupies the only slot (exchange proves it is served).
  const int first = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(first, 0);
  LineReader first_reader(first);
  EXPECT_TRUE(send_all(first, "{\"op\":\"solvers\"}\n"));
  ASSERT_TRUE(first_reader.next_line(1u << 20).has_value());

  // Second connection is answered with server_busy and closed — never
  // handed to a connection thread.
  const int second = tcp_connect("127.0.0.1", server.port());
  ASSERT_GE(second, 0);
  LineReader second_reader(second);
  const auto busy = second_reader.next_line(1u << 20);
  ASSERT_TRUE(busy.has_value());
  const JsonValue parsed = json_parse(*busy);
  EXPECT_FALSE(parsed.find("ok")->as_bool());
  EXPECT_EQ(parsed.find("code")->as_string(), "server_busy");
  EXPECT_FALSE(second_reader.next_line(1u << 20).has_value());  // dropped
  close_fd(second);

  // The surviving connection still works and sees the rejection counted.
  EXPECT_TRUE(send_all(first, "{\"op\":\"stats\"}\n"));
  const JsonValue stats = json_parse(first_reader.next_line(1u << 20).value_or("null"));
  EXPECT_EQ(stats.find("server")->find("rejected_connections")->as_int(), 1);
  EXPECT_EQ(stats.find("server")->find("connections")->as_int(), 1);
  close_fd(first);

  server.request_stop();
  serving.join();
}

}  // namespace
}  // namespace lmds::server
