#pragma once
// The adapter that runs ball-decision functions as LOCAL algorithms.
//
// A BallDecision is a pure function BallView -> bool ("do I join the output
// set?"). run_ball_algorithm gathers radius-r views through the
// message-passing simulator and applies the decision at every node,
// reporting the measured rounds/messages/bytes.
//
// The runner accepts a thread count: view extraction (gather_views) and
// decisions (common::parallel_select) shard across a fork-join pool, each
// vertex writing a preallocated slot, and the selected set is collected in
// vertex order — results are bit-identical for every thread count.
// Decisions must be pure (they are: every decision in this library reads
// only its BallView).

#include <functional>

#include "local/view.hpp"

namespace lmds::local {

/// Decision function of a single node given its view.
using BallDecision = std::function<bool(const BallView&)>;

/// Output of a LOCAL execution.
struct RunResult {
  std::vector<Vertex> selected;  ///< vertices (global indices) that joined
  TrafficStats traffic;
};

/// Full message-passing execution: radius-r views in r+1 rounds, then apply
/// `decide` at every node. `threads` <= 0 picks hardware_concurrency.
RunResult run_ball_algorithm(const Network& net, int radius, const BallDecision& decide,
                             int threads = 1);

}  // namespace lmds::local
