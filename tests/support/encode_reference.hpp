#pragma once
// The response-element encoder that served encode_solve_result before the
// std::to_chars writer (src/server/protocol.cpp), kept verbatim as the
// differential oracle: one std::to_string temporary per integer.
// tests/test_server.cpp holds encode_response_element to the same bytes on
// every registered solver's output.

#include <string>

#include "api/api.hpp"

namespace lmds::server {

/// Appends the JSON object for `r` to `out`, exactly as
/// encode_response_element does.
void encode_response_element_reference(std::string& out, const api::Response& r);

}  // namespace lmds::server
