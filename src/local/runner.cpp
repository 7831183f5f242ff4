#include "local/runner.hpp"

#include "common/parallel.hpp"

namespace lmds::local {

RunResult run_ball_algorithm(const Network& net, int radius, const BallDecision& decide,
                             int threads) {
  RunResult result;
  const auto views = gather_views(net, radius, &result.traffic, threads);
  result.selected = common::parallel_select(net.num_nodes(), threads, [&](Vertex v) {
    return decide(views[static_cast<std::size_t>(v)]);
  });
  return result;
}

}  // namespace lmds::local
