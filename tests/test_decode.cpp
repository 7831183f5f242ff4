// Edge-list decoder suite. decode_graph reads Raw graph slots in one
// streaming pass and in-memory objects by scanning their json_dump; both
// must agree with the DOM decoder they replaced (decode_graph_reference,
// kept in tests/support) on every input: the same Graph and graph_hash, or
// the same ProtocolError code and message. A table pins the edge cases; seeded byte
// mutations of solve / put_graph / replicate_in lines then hold raw-slot
// json_parse to an eager parse of the same bytes (same JsonError text,
// offset included) and every slot to the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
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

/// The graph text decoded three ways — as a Raw slot, as an in-memory
/// object, and by the oracle — must give one outcome.
void expect_agreement(const std::string& text, const ServerLimits& limits) {
  const Outcome want = outcome_of([&] { return oracle_decode(json_parse(text), limits); });
  const Outcome raw = outcome_of([&] { return checked_decode(json_parse_graph(text), limits); });
  const Outcome in_memory = outcome_of([&] { return checked_decode(json_parse(text), limits); });
  EXPECT_EQ(raw, want) << text;
  EXPECT_EQ(in_memory, want) << text;
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

TEST(DecodeGraph, AgreesOnGeneratedGraphs) {
  const ServerLimits limits;
  for (const graph::Graph& g :
       {graph::gen::grid(7, 9), graph::gen::cycle(31), graph::gen::path(1),
        graph::gen::theta_chain(5, 4), graph::Graph()}) {
    expect_agreement(encode_graph_json(g), limits);
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
  EXPECT_EQ(outcome_of([&] { return checked_decode(slot, limits); }),
            outcome_of([&] { return oracle_decode(dom, limits); }))
      << line;
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

}  // namespace
}  // namespace lmds::server
