#pragma once
// The DOM edge-list decoder that served decode_graph before the streaming
// decoder (src/server/protocol.cpp), kept verbatim as the differential
// oracle: it walks a fully materialised JsonValue object and builds through
// GraphBuilder. tests/test_decode.cpp holds the two decoders to the same
// Graph, graph_hash and ProtocolError on every input.

#include "graph/graph.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"

namespace lmds::server {

/// Decodes {"n":int?,"edges":[[u,v],...]} from an in-memory object (not a
/// Raw slot). Throws ProtocolError(BadRequest) exactly as decode_graph does.
graph::Graph decode_graph_reference(const JsonValue& v, const ServerLimits& limits);

}  // namespace lmds::server
