#include "local/simulator.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>

namespace lmds::local {

Network::Network(Graph g) : graph_(std::move(g)) {
  ids_.resize(static_cast<std::size_t>(graph_.num_vertices()));
  for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
    ids_[static_cast<std::size_t>(v)] = static_cast<NodeId>(v);
  }
}

Network::Network(Graph g, std::vector<NodeId> ids) : graph_(std::move(g)), ids_(std::move(ids)) {
  if (static_cast<int>(ids_.size()) != graph_.num_vertices()) {
    throw std::invalid_argument("Network: one id per vertex required");
  }
  std::set<NodeId> unique(ids_.begin(), ids_.end());
  if (static_cast<int>(unique.size()) != graph_.num_vertices()) {
    throw std::invalid_argument("Network: ids must be unique");
  }
}

Network Network::with_random_ids(Graph g, std::mt19937_64& rng) {
  const int n = g.num_vertices();
  std::set<NodeId> chosen;
  std::uniform_int_distribution<NodeId> draw(0, static_cast<NodeId>(1) << 48);
  while (static_cast<int>(chosen.size()) < n) chosen.insert(draw(rng));
  // The set yields the ids sorted; assigning them in that order would make
  // NodeId monotone in vertex index — a hidden correlation no adversarial ID
  // assignment has. Shuffle (deterministically, from the same rng) so the
  // id order carries no information about the topology order.
  std::vector<NodeId> ids(chosen.begin(), chosen.end());
  std::shuffle(ids.begin(), ids.end(), rng);
  return Network(std::move(g), std::move(ids));
}

FloodingState::FloodingState(const Network& net) : net_(&net), edges_(net.topology().edges()) {
  const int n = net.num_nodes();
  words_per_node_ = static_cast<int>((edges_.size() + 63) / 64);
  knowledge_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(words_per_node_), 0);
  // Round 0 knowledge: a node knows its incident edges (it can see its
  // ports; learning neighbour IDs costs the first round in the strictest
  // reading, which is why a radius-r view costs r+1 rounds in our
  // accounting — the +1 pays for edge/ID discovery).
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    row(edges_[e].u)[e / 64] |= std::uint64_t{1} << (e % 64);
    row(edges_[e].v)[e / 64] |= std::uint64_t{1} << (e % 64);
  }
}

void FloodingState::step(TrafficStats& stats) {
  const int n = net_->num_nodes();
  const Graph& g = net_->topology();
  // Synchronous semantics: all sends read the pre-round knowledge. The live
  // buffer is that pre-round state; unions land in next_, and one swap ends
  // the round — the old whole-bitset copy is gone.
  next_.resize(knowledge_.size());
  const auto next_row = [&](Vertex v) {
    return next_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(words_per_node_);
  };
  popcounts_.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t* from = row(v);
    std::uint64_t popcount = 0;
    for (int w = 0; w < words_per_node_; ++w) popcount += std::popcount(from[w]);
    popcounts_[static_cast<std::size_t>(v)] = popcount;
  }
  std::uint64_t bits_sent = 0;
  for (Vertex u = 0; u < n; ++u) {
    const std::uint64_t* own = row(u);
    std::uint64_t* to = next_row(u);
    std::copy(own, own + words_per_node_, to);
    for (Vertex v : g.neighbors(u)) {
      const std::uint64_t* from = row(v);
      for (int w = 0; w < words_per_node_; ++w) to[w] |= from[w];
      stats.messages += 1;
      bits_sent += popcounts_[static_cast<std::size_t>(v)];
    }
  }
  knowledge_.swap(next_);
  // An edge record is two 48-bit ids ~ 12 bytes.
  stats.bytes += bits_sent * 12;
  stats.rounds += 1;
}

void FloodingState::run(int rounds, TrafficStats& stats) {
  for (int i = 0; i < rounds; ++i) step(stats);
}

std::vector<int> FloodingState::known_edges(Vertex v) const {
  std::vector<int> result;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (knows_edge(v, static_cast<int>(e))) result.push_back(static_cast<int>(e));
  }
  return result;
}

}  // namespace lmds::local
