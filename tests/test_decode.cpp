// Edge-list decoder suite. json_parse collects Raw graph slots while it
// validates them (a canonical [u,v] fast path, else the general element
// grammar) and decode_graph builds from what it collected; in-memory
// objects go through their json_dump. Both must agree with the DOM decoder
// they replaced (decode_graph_reference, kept in tests/support) on every
// input: the same Graph and graph_hash, or the same ProtocolError code and
// message. The deferred decode (decode_graph_deferred), which sums the hash
// over canonically ordered edges and leaves their CSR unbuilt, is held to
// the same oracle on every input, its graph built. Tables pin the edge
// cases and the fast path's boundaries; seeded byte mutations of solve /
// put_graph / replicate_in lines then hold raw-slot json_parse to an eager
// parse of the same bytes (same JsonError text, offset included) and every
// slot to the oracle, and a syntax error placed after a decode fault must
// win as it does in the eager parse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/decode_reference.hpp"

namespace lmds::server {
namespace {

/// One decode outcome, comparable across decoders: the JsonError or
/// ProtocolError text, or the graph with its hash.
struct Outcome {
  std::string error;  ///< "json: ..." or "<code>: ..."; empty on success
  graph::Graph graph;
  std::uint64_t hash = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  if (!o.error.empty()) return os << o.error;
  return os << o.graph.summary() << " hash " << o.hash;
}

template <typename Decode>
Outcome outcome_of(Decode&& decode) {
  Outcome out;
  try {
    DecodedGraph d = decode();
    out.graph = std::move(d.graph);
    out.hash = d.hash;
  } catch (const JsonError& e) {
    out.error = std::string("json: ") + e.what();
  } catch (const ProtocolError& e) {
    out.error = std::string(to_string(e.code())) + ": " + e.what();
  }
  return out;
}

DecodedGraph oracle_decode(const JsonValue& v, const ServerLimits& limits) {
  graph::Graph g = decode_graph_reference(v, limits);
  const std::uint64_t hash = graph::graph_hash(g);
  return {std::move(g), hash};
}

DecodedGraph checked_decode(const JsonValue& v, const ServerLimits& limits) {
  DecodedGraph d = decode_graph_hashed(v, limits);
  EXPECT_EQ(d.hash, graph::graph_hash(d.graph));  // the folded hash is graph_hash
  return d;
}

/// decode_graph_deferred with its graph built afterwards, and the hash as
/// the decode returned it: summed over the edges for a deferred graph,
/// folded into the build for any other. `deferred`, when given, says which.
DecodedGraph deferred_decode(const JsonValue& v, const ServerLimits& limits,
                             bool* deferred = nullptr) {
  CheckedGraph checked = decode_graph_deferred(v, limits);
  const auto* later = std::get_if<DeferredGraph>(&checked.graph);
  if (deferred) *deferred = later != nullptr;
  return {later ? build_graph(*later) : std::get<graph::Graph>(std::move(checked.graph)),
          checked.hash};
}

/// The graph text decoded five ways — as a Raw slot and as an in-memory
/// object, each built at decode and deferred, and by the oracle — must give
/// one outcome: the same error text, or the oracle's graph with its
/// graph_hash.
void expect_agreement(const std::string& text, const ServerLimits& limits) {
  const Outcome want = outcome_of([&] { return oracle_decode(json_parse(text), limits); });
  const Outcome raw = outcome_of([&] { return checked_decode(json_parse_graph(text), limits); });
  const Outcome in_memory = outcome_of([&] { return checked_decode(json_parse(text), limits); });
  const Outcome raw_deferred =
      outcome_of([&] { return deferred_decode(json_parse_graph(text), limits); });
  const Outcome in_memory_deferred =
      outcome_of([&] { return deferred_decode(json_parse(text), limits); });
  EXPECT_EQ(raw, want) << text;
  EXPECT_EQ(in_memory, want) << text;
  EXPECT_EQ(raw_deferred, want) << text;
  EXPECT_EQ(in_memory_deferred, want) << text;
}

std::string nested(int depth) { return std::string(depth, '[') + std::string(depth, ']'); }

TEST(DecodeGraph, AgreesWithTheOracleOnEveryEdgeCase) {
  ServerLimits small;
  small.max_graph_vertices = 10;
  const ServerLimits wide;
  struct Case {
    std::string text;
    const ServerLimits* limits;
  };
  const std::vector<Case> cases = {
      // Accepted shapes.
      {R"({"n":4,"edges":[[0,1],[1,2],[2,3]]})", &wide},
      {R"({"edges":[[0,1],[1,2]]})", &wide},
      {R"({"n":5,"edges":[[0,1]]})", &wide},
      {R"({"edges":[]})", &wide},
      {R"({"n":0,"edges":[]})", &wide},
      {R"({"edges":[[3,1],[0,2],[2,1],[1,3],[0,1]]})", &wide},  // unsorted
      {R"({"edges":[[0,1],[1,0],[0,1],[2,1]]})", &wide},        // duplicates
      {R"({"n":10,"edges":[[0,9]]})", &small},
      // Every error message, in decode_graph's precedence.
      {R"([1,2,3])", &wide},
      {R"(5)", &wide},
      {R"("g")", &wide},
      {R"(null)", &wide},
      {R"({})", &wide},
      {R"({"n":3})", &wide},
      {R"({"edges":7})", &wide},
      {R"({"edges":{"a":1}})", &wide},
      {R"({"edges":"x"})", &wide},
      {R"({"edges":null})", &wide},
      {R"({"n":"3","edges":[]})", &wide},
      {R"({"n":1.0,"edges":[]})", &wide},
      {R"({"n":3000000000,"edges":[]})", &wide},
      {R"({"n":-1,"edges":[]})", &wide},
      {R"({"n":11,"edges":[]})", &small},
      {R"({"n":[3],"edges":[]})", &wide},
      {R"({"edges":[[0]]})", &wide},
      {R"({"edges":[[0,1,2]]})", &wide},
      {R"({"edges":[[]]})", &wide},
      {R"({"edges":[5]})", &wide},
      {R"({"edges":[{"u":0,"v":1}]})", &wide},
      {R"({"edges":[[0,"1"]]})", &wide},
      {R"({"edges":[[0,1.5]]})", &wide},
      {R"({"edges":[[0,1.0]]})", &wide},
      {R"({"edges":[[1e0,0]]})", &wide},
      {R"({"edges":[[0,1E0]]})", &wide},
      {R"({"edges":[[null,1]]})", &wide},
      {R"({"edges":[[true,1]]})", &wide},
      {R"({"edges":[[{},1]]})", &wide},
      {R"({"edges":[[[1],1]]})", &wide},
      {R"({"edges":[[3000000000,1]]})", &wide},
      {R"({"edges":[[-1,0]]})", &wide},
      {R"({"n":2,"edges":[[0,5]]})", &wide},
      {R"({"edges":[[0,10]]})", &small},
      {R"({"edges":[[0,0]]})", &wide},
      // int64 edges: the largest int, and one past either end (doubles).
      {R"({"edges":[[9223372036854775807,1]]})", &wide},
      {R"({"edges":[[9223372036854775808,1]]})", &wide},
      {R"({"edges":[[-9223372036854775808,1]]})", &wide},
      {R"({"edges":[[-9223372036854775809,1]]})", &wide},
      {R"({"n":99999999999999999999,"edges":[]})", &wide},
      {R"({"edges":[[-0,1]]})", &wide},
      {R"({"edges":[[007,1]]})", &wide},
      // "n" after "edges": the endpoint < n check still comes after n's
      // own checks and still runs in edge order.
      {R"({"edges":[[0,5]],"n":2})", &wide},
      {R"({"edges":[[0,1],[1,2]],"n":3})", &wide},
      {R"({"edges":[[0,0]],"n":-1})", &wide},
      {R"({"edges":[[0,5],[0,0]],"n":2})", &wide},
      {R"({"edges":[[0,0],[0,5]],"n":2})", &wide},
      {R"({"edges":[[1,5],[0]],"n":3})", &wide},
      {R"({"edges":[[0],[1,5]],"n":3})", &wide},
      {R"({"edges":[[0,0]],"n":0})", &wide},
      {R"({"edges":[[0,10]],"n":3})", &small},
      {R"({"edges":[[-1,0]],"n":0})", &wide},
      {R"({"edges":[[0,1.5]],"n":"x"})", &wide},
      // Duplicate keys: last wins, even over a malformed earlier value.
      {R"({"edges":5,"edges":[[0,1]]})", &wide},
      {R"({"edges":[[0,1]],"edges":5})", &wide},
      {R"({"n":"x","n":3,"edges":[[0,1]]})", &wide},
      {R"({"n":3,"edges":[[0,1]],"n":1})", &wide},
      {R"({"edges":[[0,0]],"edges":[[0,1]]})", &wide},
      {R"({"edges":[[0]],"edges":[[1,2]],"n":4})", &wide},
      {R"({"edges":[[0,1]],"edges":[[0,1],[0]]})", &wide},
      // Escaped member names count as their decoded names.
      {R"({"ed\u0067es":[[0,1]]})", &wide},
      {R"({"\u006e":3,"edges":[[0,1]]})", &wide},
      {R"({"edges":[[0,1]],"ed\u0067es":[[1,2]]})", &wide},
      {R"({"edges\u0000":[[0,1]]})", &wide},
      // Whitespace and CR anywhere between tokens.
      {"{ \"n\" : 3 ,\r\n \"edges\" : [ [ 0 , 1 ] ,\t[1,2]\r] }\r\n", &wide},
      {"{\r\"edges\"\r:\r[\r[\r0\r,\r1\r]\r]\r}", &wide},
      // Unknown members holding nested junk, strings with brackets and
      // escaped quotes included.
      {R"({"meta":{"a":[1,{"b":"]}"}],"c":"\"[{"},"n":3,"edges":[[0,1]],"x":[[[]]]})", &wide},
      {R"({"edges":[[0,1]],"tag":"a\\","more":[{"k":"}"}]})", &wide},
      // Nesting inside the graph: 64 levels parse, 65 do not.
      {R"({"edges":[[0,1]],"junk":)" + nested(64) + "}", &wide},
      {R"({"edges":[[0,1]],"junk":)" + nested(65) + "}", &wide},
      {R"({"edges":[[0,)" + nested(62) + "]]}", &wide},
      {R"({"edges":[[0,)" + nested(63) + "]]}", &wide},
  };
  for (const Case& c : cases) expect_agreement(c.text, *c.limits);
}

// json_parse collects an "edges" element through a tight loop when it is
// the canonical [digits,digits] (1-9 digits, no sign, no whitespace) and
// through the general element grammar otherwise; both must give the
// oracle's outcome, on either side of every boundary between the two.
TEST(DecodeGraph, FastPathBoundariesAgreeWithTheOracle) {
  ServerLimits small;
  small.max_graph_vertices = 10;
  const ServerLimits wide;
  struct Case {
    std::string text;
    const ServerLimits* limits;
  };
  const std::vector<Case> cases = {
      // 9 digits take the fast path, 10 the general grammar.
      {R"({"edges":[[0,999999999]]})", &wide},
      {R"({"edges":[[999999999,0]]})", &wide},
      {R"({"edges":[[0,1000000000]]})", &wide},
      {R"({"edges":[[1000000000,0]]})", &wide},
      {R"({"n":3,"edges":[[0,999999999]]})", &wide},
      {R"({"n":3,"edges":[[1000000000,0]]})", &wide},
      {R"({"edges":[[0,1],[999999999,999999999]]})", &wide},
      // 2^31 - 1 is an int, 2^31 is not.
      {R"({"edges":[[0,2147483647]]})", &wide},
      {R"({"edges":[[2147483647,0]]})", &wide},
      {R"({"edges":[[2147483647,2147483647]]})", &wide},
      {R"({"edges":[[0,2147483648]]})", &wide},
      {R"({"edges":[[2147483648,0]]})", &wide},
      {R"({"n":2,"edges":[[0,2147483648]]})", &wide},
      {R"({"n":2147483647,"edges":[]})", &wide},
      {R"({"n":2147483648,"edges":[]})", &wide},
      // Leading zeros, up to and past nine digits.
      {R"({"edges":[[00,01],[0001,2]]})", &wide},
      {R"({"edges":[[000000009,1]]})", &wide},
      {R"({"edges":[[0000000009,1]]})", &wide},
      {R"({"n":010,"edges":[[9,0]]})", &wide},
      // Signs, fractions and exponents leave the fast path.
      {R"({"edges":[[-0,1],[1,2]]})", &wide},
      {R"({"edges":[[1,-0]]})", &wide},
      {R"({"edges":[[-1,2]]})", &wide},
      {R"({"edges":[[1,-2]]})", &wide},
      {R"({"edges":[[1.0,2]]})", &wide},
      {R"({"edges":[[1,2.0]]})", &wide},
      {R"({"edges":[[1e0,2]]})", &wide},
      {R"({"edges":[[1,2e0]]})", &wide},
      {R"({"edges":[[1,2E+0]]})", &wide},
      {R"({"edges":[[0,1],[1,2.5],[2,2]]})", &wide},
      // Whitespace, CR and tab inside and between elements.
      {R"({"edges":[ [0,1],[1,2]]})", &wide},
      {R"({"edges":[[0,1] ,[1,2]]})", &wide},
      {R"({"edges":[[0,1], [1,2]]})", &wide},
      {"{\"edges\":[[0,1],\t[1,2]]}", &wide},
      {R"({"edges":[[ 0,1]]})", &wide},
      {R"({"edges":[[0 ,1]]})", &wide},
      {R"({"edges":[[0, 1]]})", &wide},
      {R"({"edges":[[0,1 ]]})", &wide},
      {"{\"edges\":[[0,\r1],[1,\t2]]}", &wide},
      {"{\"edges\":[[0,1]\r\n]}", &wide},
      {"{\"edges\":[[0,1],[1,2]\t]}", &wide},
      // Escaped "edges" and "n".
      {R"({"\u0065dges":[[0,1],[1,2]]})", &wide},
      {R"({"edges":[[0,1]],"\u0065dges":[[5,5]]})", &wide},
      {R"({"\u0065dges":[[0,1]],"edges":[[1,2]],"\u006e":2})", &wide},
      {R"({"ed\"ges":[[0,1]]})", &wide},
      // Duplicate "edges": the last one, fast or not, is the graph.
      {R"({"edges":[[0,1],[1,1]],"edges":[[1,2]]})", &wide},
      {R"({"edges":[[1,2]],"edges":[[0, 1],[2,2]]})", &wide},
      {R"({"edges":[[0,1],[1,2]],"edges":[]})", &wide},
      {R"({"edges":[[0],[1,2]],"edges":[[1,2],[2,3]]})", &wide},
      // "n" after "edges".
      {R"({"edges":[[0,1],[1,2]],"n":2})", &wide},
      {R"({"edges":[[0,1],[1,2]],"n":5,"n":3})", &wide},
      {R"({"edges":[[0,1],[1,2]],"n":"3"})", &wide},
      // A canonical prefix, then one element that is not canonical.
      {R"({"edges":[[0,1],[1,2],[2, 3]]})", &wide},
      {R"({"edges":[[0,1],[1,2],[2,3.5]]})", &wide},
      {R"({"edges":[[0,1],[1,2],[2]]})", &wide},
      {R"({"edges":[[0,1],[1,2],"x",[3,3]]})", &wide},
      {R"({"edges":[[0,1],[1,2],[2,3],[3,-4]]})", &wide},
      {R"({"edges":[[0,1],[1,2],[2,1000000000]]})", &wide},
      {R"({"edges":[[0,1],[1,2],[2,3,4]]})", &wide},
      {R"({"edges":[[0, 1],[1,2],[2,3]]})", &wide},
      // Empty "edges".
      {R"({"edges":[ ]})", &wide},
      {"{\"edges\":[\r\n\t]}", &wide},
      {R"({"n":3,"edges":[]})", &wide},
      // Endpoints at max_graph_vertices - 1 and at the limit.
      {R"({"edges":[[9,0]]})", &small},
      {R"({"edges":[[0,9],[9,10]]})", &small},
      {R"({"edges":[[10,0]]})", &small},
      {R"({"edges":[[10,10]]})", &small},
      {R"({"n":10,"edges":[[9,8]]})", &small},
      {R"({"edges":[[0,9]],"n":9})", &small},
      {R"({"edges":[[0, 10]]})", &small},
      // Syntax errors next to canonical elements: the grammar's error.
      {R"({"edges":[[0,1],[1,2]})", &wide},
      {R"({"edges":[[0,1],[1,2],]})", &wide},
      {R"({"edges":[[0,1][1,2]]})", &wide},
      {R"({"edges":[[0,1,],[1,2]]})", &wide},
      {R"({"edges":[[0,1],[1,2]])", &wide},
      {R"({"edges":[[0,1],[1,2)", &wide},
      {R"({"edges":[[0,1],[1,2]]}x)", &wide},
      {R"({"edges":[[01a,2]]})", &wide},
      {R"({"edges":[[0,+1]]})", &wide},
      {R"({"edges":[[0,-]]})", &wide},
      {R"({"edges":[[0,1]x]})", &wide},
      {R"({"edges":[[0,1],[0,1)", &wide},
  };
  for (const Case& c : cases) expect_agreement(c.text, *c.limits);
}

/// {"n":n,"edges":[...]} of `edges` in the given order, each pair written
/// [u,v], or [v,u] when `reversed`.
std::string spell_graph(int n, const std::vector<graph::Edge>& edges, bool reversed) {
  std::string text = "{\"n\":" + std::to_string(n) + ",\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i) text += ',';
    const graph::Vertex first = reversed ? edges[i].v : edges[i].u;
    const graph::Vertex second = reversed ? edges[i].u : edges[i].v;
    text += '[' + std::to_string(first) + ',' + std::to_string(second) + ']';
  }
  return text + "]}";
}

TEST(DecodeGraph, AgreesOnGeneratedGraphs) {
  const ServerLimits limits;
  std::mt19937_64 spelling_rng(29);
  for (const graph::Graph& g :
       {graph::gen::grid(7, 9), graph::gen::cycle(31), graph::gen::path(1),
        graph::gen::theta_chain(5, 4), graph::Graph()}) {
    expect_agreement(encode_graph_json(g), limits);
    const std::vector<graph::Edge> sorted = g.edges();
    if (sorted.size() < 2) continue;
    // Five spellings of g: the canonical one and its reversed pairs defer
    // the CSR; shuffled, or with a duplicate next to its twin or far from
    // it, the pairs are not strictly increasing and build it at decode.
    std::vector<graph::Edge> shuffled = sorted;
    while (shuffled == sorted) std::shuffle(shuffled.begin(), shuffled.end(), spelling_rng);
    std::vector<graph::Edge> adjacent_duplicate = sorted;
    adjacent_duplicate.insert(adjacent_duplicate.begin() + 1, sorted[0]);
    std::vector<graph::Edge> far_duplicate = sorted;
    far_duplicate.push_back(sorted[0]);
    const int n = g.num_vertices();
    ASSERT_EQ(spell_graph(n, sorted, false), encode_graph_json(g));
    const std::vector<std::pair<std::string, bool>> spellings = {
        {spell_graph(n, sorted, false), true},
        {spell_graph(n, sorted, true), true},
        {spell_graph(n, shuffled, false), false},
        {spell_graph(n, adjacent_duplicate, false), false},
        {spell_graph(n, far_duplicate, true), false},
    };
    for (const auto& [text, defers] : spellings) {
      expect_agreement(text, limits);
      bool deferred = false;
      const DecodedGraph d = deferred_decode(json_parse_graph(text), limits, &deferred);
      EXPECT_EQ(deferred, defers) << text;
      EXPECT_EQ(d.graph, g) << text;
      EXPECT_EQ(d.hash, graph::graph_hash(g)) << text;
    }
  }
  // The same edges in shuffled order and orientation build the same CSR.
  std::mt19937_64 rng(17);
  const graph::Graph g = graph::gen::grid(12, 12);
  std::vector<graph::Edge> edges = g.edges();
  std::shuffle(edges.begin(), edges.end(), rng);
  std::string text = "{\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i) text += ',';
    const bool flip = (rng() & 1) != 0;
    text += '[' + std::to_string(flip ? edges[i].v : edges[i].u) + ',' +
            std::to_string(flip ? edges[i].u : edges[i].v) + ']';
  }
  text += "]}";
  expect_agreement(text, limits);
  EXPECT_EQ(decode_graph(json_parse_graph(text), limits), g);
}

TEST(DecodeGraph, DuplicateAndReversedPairsHashOnce) {
  // The folded hash counts each edge of the deduplicated graph once, from
  // its lower endpoint's row, whatever the slot repeats or reverses.
  const ServerLimits limits;
  const graph::Graph path = graph::gen::path(3);
  const std::uint64_t want =
      graph::vertex_count_term(3) + graph::edge_term(0, 1) + graph::edge_term(1, 2);
  ASSERT_EQ(graph::graph_hash(path), want);
  for (const std::string text : {R"({"edges":[[0,1],[1,0],[0,1],[2,1],[1,2]]})",
                                 R"({"edges":[[1,2],[0,1],[1,2]],"n":3})",
                                 R"({"edges":[[2,1],[1,0]]})"}) {
    const DecodedGraph d = decode_graph_hashed(json_parse_graph(text), limits);
    EXPECT_EQ(d.graph, path) << text;
    EXPECT_EQ(d.hash, want) << text;
    expect_agreement(text, limits);
  }
}

TEST(DecodeGraph, SolveRequestCarriesEverySlotsHash) {
  const api::Registry& registry = api::Registry::instance();
  const graph::Graph g = graph::gen::grid(3, 4);
  const std::string handle = "g00000000000000ab";
  const JsonValue root = json_parse(R"({"op":"solve","solver":"greedy","graphs":[)" +
                                    encode_graph_json(g) + ",\"" + handle + "\"]}");
  EXPECT_EQ(root.find("graphs")->as_array()[0].type(), JsonValue::Type::Raw);
  const SolveRequest req = decode_solve(root, registry, ServerLimits{});
  ASSERT_EQ(req.hashes.size(), 2u);
  EXPECT_EQ(std::get<graph::Graph>(req.graphs[0]), g);
  EXPECT_EQ(req.hashes[0], graph::graph_hash(g));
  EXPECT_EQ(req.hashes[1], 0xabu);
}

// The router and the Session decode with decode_solve_deferred: a
// canonically ordered slot is hashed from its edges and stays unbuilt, any
// other slot is built at decode, and every hash is graph_hash. A deferred
// graph shares its parsed slot, so it builds after the parse is gone.
TEST(DecodeGraph, DeferredSolveBuildsOnlyNonCanonicalSlots) {
  const api::Registry& registry = api::Registry::instance();
  const graph::Graph a = graph::gen::grid(3, 4);
  const graph::Graph b = graph::gen::theta_chain(3, 2);
  std::vector<graph::Edge> rotated = b.edges();  // its first pair last: not increasing
  std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
  SolveRequest req;
  {
    const JsonValue root = json_parse(R"({"op":"solve","solver":"greedy","graphs":[)" +
                                      encode_graph_json(a) + ",\"g00000000000000ab\"," +
                                      spell_graph(b.num_vertices(), rotated, false) + "]}");
    req = decode_solve_deferred(root, registry, ServerLimits{});
    const SolveRequest built = decode_solve(root, registry, ServerLimits{});
    EXPECT_EQ(built.hashes, req.hashes);
    EXPECT_EQ(std::get<graph::Graph>(built.graphs[0]), a);
    EXPECT_EQ(std::get<graph::Graph>(built.graphs[2]), b);
  }
  ASSERT_EQ(req.graphs.size(), 3u);
  ASSERT_TRUE(std::holds_alternative<DeferredGraph>(req.graphs[0]));
  EXPECT_EQ(std::get<std::string>(req.graphs[1]), "g00000000000000ab");
  ASSERT_TRUE(std::holds_alternative<graph::Graph>(req.graphs[2]));
  EXPECT_EQ(std::get<graph::Graph>(req.graphs[2]), b);
  EXPECT_EQ(build_graph(std::get<DeferredGraph>(req.graphs[0])), a);
  EXPECT_EQ(req.hashes, (std::vector<std::uint64_t>{graph::graph_hash(a), 0xab,
                                                    graph::graph_hash(b)}));
}

TEST(RawSlots, OnlyGraphPositionsStayRawAndDumpVerbatim) {
  const std::string graph = "{ \"edges\" : [[1,0]] ,\"n\":2}";
  const JsonValue put = json_parse(R"({"op":"put_graph","graph":)" + graph + "}");
  ASSERT_EQ(put.find("graph")->type(), JsonValue::Type::Raw);
  EXPECT_EQ(put.find("graph")->raw_text(), graph);
  EXPECT_EQ(json_dump(put), R"({"graph":)" + graph + R"(,"op":"put_graph"})");

  const JsonValue solve =
      json_parse(R"({"graphs":[)" + graph + R"(,"g0000000000000001",5],"x":{"graph":{}}})");
  const JsonValue::Array& slots = solve.find("graphs")->as_array();
  EXPECT_EQ(slots[0].type(), JsonValue::Type::Raw);
  EXPECT_EQ(slots[1].type(), JsonValue::Type::String);  // handles stay strings
  EXPECT_EQ(slots[2].type(), JsonValue::Type::Int);
  // Not top-level: materialised as usual.
  EXPECT_EQ(solve.find("x")->find("graph")->type(), JsonValue::Type::Object);
  EXPECT_EQ(json_parse(graph).type(), JsonValue::Type::Object);
  EXPECT_EQ(json_parse_graph(graph).type(), JsonValue::Type::Raw);
  EXPECT_EQ(json_parse_graph("[1]").type(), JsonValue::Type::Array);
  EXPECT_THROW((void)json_parse_graph("{\"edges\":[}"), JsonError);
}

// A slot's bytes are a view of the parsed text, never a copy. The view
// overload borrows the caller's text; the rvalue overload takes the text
// over into one string every slot of the value shares, so the value reads
// its slots after the source string is gone. What was collected is the
// slot's own either way: a deferred graph builds after borrowed text is
// gone.
TEST(RawSlots, ViewParseBorrowsTheTextAndRvalueParseKeepsIt) {
  const std::string graph = R"({"n":3,"edges":[[0,1],[1,2]]})";
  const std::string line =
      R"({"op":"solve","solver":"greedy","graphs":[)" + graph + "," + graph + "]}";
  const auto inside = [](std::string_view bytes, const std::string& text) {
    const auto at = reinterpret_cast<std::uintptr_t>(bytes.data());
    const auto begin = reinterpret_cast<std::uintptr_t>(text.data());
    return at >= begin && at + bytes.size() <= begin + text.size();
  };

  const JsonValue borrowed = json_parse(line);
  for (const JsonValue& slot : borrowed.find("graphs")->as_array()) {
    EXPECT_EQ(slot.raw_text(), graph);
    EXPECT_TRUE(inside(slot.raw_text(), line));
    EXPECT_EQ(slot.graph_slot()->source, nullptr);
  }
  const JsonValue borrowed_graph = json_parse_graph(graph);
  EXPECT_EQ(borrowed_graph.raw_text().data(), graph.data());

  const JsonValue owned = json_parse(std::string(line));  // the temporary dies here
  const JsonValue::Array& slots = owned.find("graphs")->as_array();
  ASSERT_EQ(slots.size(), 2u);
  ASSERT_NE(slots[0].graph_slot()->source, nullptr);
  EXPECT_EQ(slots[0].graph_slot()->source, slots[1].graph_slot()->source);
  EXPECT_TRUE(inside(slots[0].raw_text(), *slots[0].graph_slot()->source));
  EXPECT_EQ(slots[0].raw_text(), graph);
  EXPECT_EQ(slots[1].raw_text(), graph);
  EXPECT_EQ(json_dump(owned),
            R"({"graphs":[)" + graph + "," + graph + R"(],"op":"solve","solver":"greedy"})");
  const JsonValue owned_graph = json_parse_graph(std::string(graph));
  EXPECT_EQ(owned_graph.raw_text(), graph);

  SolveRequest req;
  {
    const std::string text = line;
    req = decode_solve_deferred(json_parse(text), api::Registry::instance(), ServerLimits{});
  }
  ASSERT_TRUE(std::holds_alternative<DeferredGraph>(req.graphs[0]));
  EXPECT_EQ(build_graph(std::get<DeferredGraph>(req.graphs[0])), graph::gen::path(3));
}

// ---------------------------------------------------------------------------
// Seeded byte mutations: raw-slot parse vs eager parse, slot by slot

/// The slot members and equal-length names that json_parse materialises.
constexpr std::pair<std::string_view, std::string_view> kAliases[] = {{"graph", "grapz"},
                                                                      {"graphs", "graphz"}};

std::string quoted(std::string_view name) { return '"' + std::string(name) + '"'; }

/// The same bytes with the slot members renamed to their aliases, so byte
/// offsets line up.
std::string renamed(std::string line) {
  for (const auto& [name, alias] : kAliases) {
    const std::string from = quoted(name);
    for (std::size_t at = line.find(from); at != std::string::npos; at = line.find(from, at)) {
      line.replace(at, from.size(), quoted(alias));
    }
  }
  return line;
}

std::string mutate(std::string line, std::mt19937_64& rng) {
  static constexpr std::string_view kAlphabet = "{}[],:\"\\ \r\n\t0123456789-+.eEtrufalsn\x01";
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int k = 0; k < edits && !line.empty(); ++k) {
    const std::size_t at = rng() % line.size();
    const char c = rng() % 4 == 0 ? static_cast<char>(rng() & 0xFF)
                                  : kAlphabet[rng() % kAlphabet.size()];
    switch (rng() % 4) {
      case 0: line[at] = c; break;
      case 1: line.erase(at, 1); break;
      case 2: line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), c); break;
      default: {
        const std::size_t len = 1 + rng() % 8;
        line.insert(at, line.substr(at, len));
      }
    }
  }
  return line;
}

/// Raw `slot` (from the raw-mode parse) decodes as the oracle decodes the
/// eager `dom` parse of the same bytes.
void expect_slot_agreement(const JsonValue& slot, const JsonValue& dom, const ServerLimits& limits,
                           const std::string& line) {
  if (slot.type() == JsonValue::Type::String) {
    ASSERT_EQ(dom.type(), JsonValue::Type::String) << line;
    EXPECT_EQ(slot.as_string(), dom.as_string()) << line;
    return;
  }
  const Outcome want = outcome_of([&] { return oracle_decode(dom, limits); });
  EXPECT_EQ(outcome_of([&] { return checked_decode(slot, limits); }), want) << line;
  EXPECT_EQ(outcome_of([&] { return deferred_decode(slot, limits); }), want) << line;
}

TEST(DecodeGraph, SeededMutationsAgreeWithEagerParseAndOracle) {
  ServerLimits limits;
  limits.max_graph_vertices = 64;
  const std::string g1 = encode_graph_json(graph::gen::grid(3, 4));
  const std::string g2 = R"({"edges":[[0,1],[2,1],[3,0]],"n":5})";
  const std::string g3 = R"({"m":{"a":"]}\""},"ed\u0067es":[[0,2],[2,1]],"n":3})";
  const std::vector<std::string> bases = {
      R"({"op":"solve","solver":"greedy","graphs":[)" + g1 + ",\"g0000000000000001\"," + g2 +
          "," + g3 + "]}",
      R"({"op":"put_graph","graph":)" + g2 + "}",
      R"({"op":"put_graph","graph":)" + g3 + "}",
      R"({"op":"replicate_in","graphs":[)" + g2 + "," + g1 + R"(],"cache":""})",
  };
  std::mt19937_64 rng(0x5eed);
  int both_parsed = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string line = mutate(bases[static_cast<std::size_t>(iter) % bases.size()], rng);
    std::string raw_error;
    std::string eager_error;
    JsonValue raw;
    JsonValue eager;
    try {
      raw = json_parse(line);
    } catch (const JsonError& e) {
      raw_error = e.what();
    }
    try {
      eager = json_parse(renamed(line));
    } catch (const JsonError& e) {
      eager_error = e.what();
    }
    ASSERT_EQ(raw_error, eager_error) << line;
    if (!raw_error.empty()) continue;
    // A mutation that itself spelled an alias would collide with it.
    if (line.find(quoted("grapz")) != std::string::npos ||
        line.find(quoted("graphz")) != std::string::npos) {
      continue;
    }
    ++both_parsed;
    for (const auto& [key, alias] : kAliases) {
      const JsonValue* slot = raw.find(key);
      if (!slot) continue;
      // An escaped spelling of the name escapes the byte rename, and then
      // both parses hold it raw: nothing to compare.
      const JsonValue* dom = eager.find(alias);
      if (!dom) continue;
      if (key == "graph") {
        expect_slot_agreement(*slot, *dom, limits, line);
      } else if (slot->type() != JsonValue::Type::Array) {
        EXPECT_EQ(slot->type(), dom->type()) << line;
      } else {
        ASSERT_EQ(dom->type(), JsonValue::Type::Array) << line;
        ASSERT_EQ(slot->as_array().size(), dom->as_array().size()) << line;
        for (std::size_t i = 0; i < slot->as_array().size(); ++i) {
          expect_slot_agreement(slot->as_array()[i], dom->as_array()[i], limits, line);
        }
      }
    }
  }
  EXPECT_GT(both_parsed, 200);  // the mutations must not only break the syntax
}

// A JSON syntax error anywhere in a line wins over a decode fault that
// comes before it: json_parse raises no decode error while it collects a
// slot, so decode faults surface only once the whole line has parsed.
TEST(DecodeGraph, SyntaxErrorAfterADecodeFaultWins) {
  struct Case {
    std::string before;  ///< up to and including the decode fault
    std::string bad;     ///< the rest of the line, with a syntax error
    std::string good;    ///< the rest of the line, well-formed
  };
  const std::string solve = R"({"op":"solve","solver":"greedy","graphs":[)";
  const std::vector<Case> cases = {
      // The same slot.
      {solve + R"({"edges":[[0,0]])", R"(,"n":}]})", R"(,"n":2}]})"},
      {solve + R"({"edges":[[0],[1,2])", R"(x]}]})", R"(]}]})"},
      {solve + R"({"n":-1,"edges":[[0,1])", R"(],"x":[1,}]})", R"(],"x":[1]}]})"},
      // A later slot.
      {solve + R"({"edges":[[0,0]]})", R"(,{"edges":[[0,1]x}]})", R"(,{"edges":[[0,1]]}]})"},
      {solve + R"({"edges":[["a",1]]})", R"(,"g0000000000000001",{"edges":[[0,1],]}]})",
       R"(,"g0000000000000001",{"edges":[[0,1]]}]})"},
      // A member after "graphs" that is not a slot.
      {solve + R"({"edges":[[0,0]]}])", R"(,"options":{"t":}})", R"(,"options":{"t":3}})"},
      {solve + R"({"edges":5}])", R"(,"measure_ratio":tru})", R"(,"measure_ratio":true})"},
      {R"({"op":"put_graph","graph":{"edges":[[0,1.5]]})", R"(,"x":[}})", R"(,"x":[]})"},
  };
  Server server{ServerOptions{}};
  for (const Case& c : cases) {
    const std::string good = c.before + c.good;
    const std::string bad = c.before + c.bad;
    // Well-formed, the line answers its decode fault.
    const std::string fault = server.handle_line(good);
    EXPECT_TRUE(fault.starts_with(R"({"ok":false,"code":"bad_request")")) << good << " -> " << fault;
    EXPECT_EQ(fault.find("invalid JSON"), std::string::npos) << good << " -> " << fault;
    // With the later syntax error, the line answers the eager parse's error.
    std::string eager_error;
    try {
      (void)json_parse(renamed(bad));
    } catch (const JsonError& e) {
      eager_error = e.what();
    }
    ASSERT_FALSE(eager_error.empty()) << bad;
    EXPECT_THROW((void)json_parse(bad), JsonError) << bad;
    EXPECT_EQ(server.handle_line(bad),
              encode_error(ErrorCode::BadRequest, "invalid JSON: " + eager_error))
        << bad;
  }
}

/// `line` with 1-3 seeded byte edits, all at or after byte `from`.
std::string mutate_after(const std::string& line, std::size_t from, std::mt19937_64& rng) {
  return line.substr(0, from) + mutate(line.substr(from), rng);
}

TEST(DecodeGraph, SeededSyntaxErrorsAfterADecodeFaultAgree) {
  ServerLimits limits;
  limits.max_graph_vertices = 64;
  // Each base holds a decode fault; mutations land only after it — in the
  // same slot, a later slot or a later non-slot member.
  struct Base {
    std::string line;
    std::string fault;  ///< the faulty element; mutations start after it
  };
  const std::string later = R"(,"g0000000000000001",{"edges":[[0,1],[2,1]],"n":4}])";
  const std::vector<Base> bases = {
      {R"({"op":"solve","solver":"greedy","graphs":[{"edges":[[0,1],[1,1],[2,3]],"n":5})" + later +
           R"(,"options":{"k":[1,2,{"a":"b"}]},"measure_ratio":false})",
       "[1,1]"},
      {R"({"op":"solve","solver":"greedy","graphs":[{"n":4,"edges":[[0,"1"],[1,2]]})" + later +
           R"(,"batch":{"threads":1}})",
       R"([0,"1"])"},
      {R"({"op":"solve","solver":"greedy","graphs":[{"edges":[[0,1],[1,99]]})" + later + "}",
       "[1,99]"},
      {R"({"op":"put_graph","graph":{"edges":[[0,1],[2]],"meta":{"a":[1,2]}},"ns":"x"})", "[2]"},
  };
  std::mt19937_64 rng(0xfa17);
  int both_parsed = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const Base& base = bases[static_cast<std::size_t>(iter) % bases.size()];
    const std::size_t from = base.line.find(base.fault) + base.fault.size();
    const std::string line = mutate_after(base.line, from, rng);
    std::string raw_error;
    std::string eager_error;
    JsonValue raw;
    JsonValue eager;
    try {
      raw = json_parse(line);
    } catch (const JsonError& e) {
      raw_error = e.what();
    }
    try {
      eager = json_parse(renamed(line));
    } catch (const JsonError& e) {
      eager_error = e.what();
    }
    ASSERT_EQ(raw_error, eager_error) << line;
    if (!raw_error.empty()) continue;
    if (line.find(quoted("grapz")) != std::string::npos ||
        line.find(quoted("graphz")) != std::string::npos) {
      continue;
    }
    ++both_parsed;
    for (const auto& [key, alias] : kAliases) {
      const JsonValue* slot = raw.find(key);
      const JsonValue* dom = eager.find(alias);
      if (!slot || !dom) continue;
      if (key == "graph") {
        expect_slot_agreement(*slot, *dom, limits, line);
      } else if (slot->type() == JsonValue::Type::Array) {
        ASSERT_EQ(slot->as_array().size(), dom->as_array().size()) << line;
        for (std::size_t i = 0; i < slot->as_array().size(); ++i) {
          expect_slot_agreement(slot->as_array()[i], dom->as_array()[i], limits, line);
        }
      }
    }
  }
  EXPECT_GT(both_parsed, 100);
}

}  // namespace
}  // namespace lmds::server
