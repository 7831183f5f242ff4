#include "cuts/local_cuts.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "cuts/block_cut.hpp"

namespace lmds::cuts {

namespace {

void require_radius(int r) {
  if (r < 1) throw std::invalid_argument("local cuts: radius must be >= 1");
}

// True iff G[N(v) − skip] is disconnected: one BFS inside it, in `scratch`,
// from its first vertex. Fewer than two vertices count as connected.
bool link_split(const Graph& g, Vertex v, Vertex skip, graph::BfsScratch& scratch) {
  const auto nb = g.neighbors(v);
  const std::size_t size = nb.size() - (g.has_edge(v, skip) ? 1 : 0);
  if (size < 2) return false;
  const Vertex start[] = {nb[0] != skip ? nb[0] : nb[1]};
  graph::mark_ball_if(g, start, -1, scratch,
                      [&](std::size_t, Vertex w) { return w != skip && g.has_edge(v, w); });
  return scratch.visited().size() < size;
}

}  // namespace

bool LocalCutKernel::is_one_cut(const Graph& g, Vertex v, int r) {
  // N^r[v] is connected, so v is a cut vertex of G[N^r[v]] iff N^r[v] − v
  // has >= 2 components, and a connected link N(v) joins them all.
  if (!link_split(g, v, graph::kNoVertex, ball_)) return false;
  const Vertex sources[] = {v};
  graph::mark_ball(g, sources, r, ball_);
  return label_components(g, 1) >= 2;
}

bool LocalCutKernel::within(const Graph& g, Vertex u, Vertex v, int r) {
  const Vertex sources[] = {v};
  graph::mark_ball(g, sources, r, ball_);
  return ball_.seen(u);
}

// Every ball vertex has a shortest path to a source that stays inside the
// ball, so every component of the ball minus its sources holds an attached
// vertex: one at distance 1, contiguous in the visit list after the
// sources. Each attached vertex starts as its own class, one multi-source
// sweep grows them all at once, and two classes merge where their waves
// meet. A connected ball is answered as soon as one class is left, usually
// near the sources; otherwise the sweep labels the whole ball.
int LocalCutKernel::label_components(const Graph& g, std::size_t sources) {
  const std::vector<Vertex>& ball = ball_.visited();
  label_.begin(g.num_vertices());
  for (std::size_t i = 0; i < sources; ++i) label_.mark(ball[i], -1);
  parent_.clear();
  for (std::size_t i = sources; i < ball.size() && ball_.dist(ball[i]) == 1; ++i) {
    label_.mark(ball[i], static_cast<int>(parent_.size()));
    parent_.push_back(static_cast<int>(parent_.size()));
  }
  int classes = static_cast<int>(parent_.size());
  for (std::size_t head = sources; head < label_.visited().size() && classes > 1; ++head) {
    const int cx = label_.dist(label_.visited()[head]);
    for (Vertex w : g.neighbors(label_.visited()[head])) {
      if (!ball_.seen(w)) continue;
      if (!label_.seen(w)) {
        label_.mark(w, cx);
        continue;
      }
      const int cw = label_.dist(w);
      if (cw < 0 || cw == cx) continue;
      const int a = find(cx);
      const int b = find(cw);
      if (a == b) continue;
      parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      --classes;
    }
  }
  return classes;
}

int LocalCutKernel::find(int c) {
  while (parent_[static_cast<std::size_t>(c)] != c) {
    const int up = parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(c)])];
    parent_[static_cast<std::size_t>(c)] = up;
    c = up;
  }
  return c;
}

PairCut LocalCutKernel::pair(const Graph& g, Vertex u, Vertex v, int r) {
  // A full component holds a neighbour of u and one of v outside the pair,
  // so a minimal pair needs two of each; degrees answer the rest for free.
  const int adjacent = g.has_edge(u, v) ? 1 : 0;
  if (g.degree(u) - adjacent < 2 || g.degree(v) - adjacent < 2) return {};
  const Vertex sources[] = {u, v};
  graph::mark_ball(g, sources, r, ball_);
  if (label_components(g, 2) < 2) return {};

  // Two or more components: the sweep labelled the whole ball. r >= 1 puts
  // N(u) and N(v) in the ball, so adjacency to u or v (and condition (2)'s
  // "non-adjacent to u") reads from g itself.
  const std::size_t classes = parent_.size();
  size_.assign(classes, 0);
  near_u_.assign(classes, 0);
  near_v_.assign(classes, 0);
  const auto component = [&](Vertex w) {
    return static_cast<std::size_t>(find(label_.dist(w)));
  };
  for (std::size_t i = 2; i < label_.visited().size(); ++i) {
    ++size_[component(label_.visited()[i])];
  }
  for (Vertex w : g.neighbors(u)) {
    if (w != v) ++near_u_[component(w)];
  }
  for (Vertex w : g.neighbors(v)) {
    if (w != u) ++near_v_[component(w)];
  }
  int full = 0;
  int spread_u = 0;
  int spread_v = 0;
  // Counters sit on each component's root class; the other classes read 0.
  for (std::size_t c = 0; c < classes; ++c) {
    if (near_u_[c] > 0 && near_v_[c] > 0) ++full;
    if (size_[c] > near_u_[c]) ++spread_u;
    if (size_[c] > near_v_[c]) ++spread_v;
  }
  if (full < 2) return {};
  return {true, spread_u >= 2, spread_v >= 2};
}

PairFilter::PairFilter(const Graph& g)
    : g_(g), first_(static_cast<std::size_t>(g.num_vertices()) + 1, 0),
      split_(static_cast<std::size_t>(g.num_vertices()), -1) {
  const std::vector<std::vector<Vertex>> all = biconnected_blocks(g);
  for (const auto& block : all) {
    if (block.size() < 3) continue;
    for (Vertex w : block) ++first_[static_cast<std::size_t>(w) + 1];
  }
  std::partial_sum(first_.begin(), first_.end(), first_.begin());
  blocks_.resize(static_cast<std::size_t>(first_.back()));
  std::vector<int> next(first_.begin(), first_.end() - 1);
  for (std::size_t b = 0; b < all.size(); ++b) {
    if (all[b].size() < 3) continue;
    for (Vertex w : all[b]) {
      blocks_[static_cast<std::size_t>(next[static_cast<std::size_t>(w)]++)] = static_cast<int>(b);
    }
  }
}

bool PairFilter::in_block(Vertex w, int b) const {
  const auto row = blocks_.begin();
  return std::binary_search(row + first_[static_cast<std::size_t>(w)],
                            row + first_[static_cast<std::size_t>(w) + 1], b);
}

bool PairFilter::share_block(Vertex u, Vertex v) const {
  const auto su = static_cast<std::size_t>(u);
  for (int i = first_[su]; i < first_[su + 1]; ++i) {
    if (in_block(v, blocks_[static_cast<std::size_t>(i)])) return true;
  }
  return false;
}

bool PairFilter::links_split(Vertex u, Vertex v) {
  const auto split = [&](Vertex a, Vertex b) {
    if (g_.has_edge(a, b)) return link_split(g_, a, b, scratch_);
    signed char& known = split_[static_cast<std::size_t>(a)];
    if (known < 0) known = link_split(g_, a, graph::kNoVertex, scratch_) ? 1 : 0;
    return known == 1;
  };
  return split(u, v) && split(v, u);
}

const std::vector<Vertex>& PairFilter::partners(Vertex v, int r) {
  partners_.clear();
  const Vertex source[] = {v};
  const auto sv = static_cast<std::size_t>(v);
  for (int i = first_[sv]; i < first_[sv + 1]; ++i) {
    const int b = blocks_[static_cast<std::size_t>(i)];
    graph::mark_ball_if(g_, source, r, scratch_,
                        [this, b](std::size_t, Vertex w) { return in_block(w, b); });
    partners_.insert(partners_.end(), scratch_.visited().begin() + 1, scratch_.visited().end());
  }
  std::sort(partners_.begin(), partners_.end());
  return partners_;
}

bool is_local_one_cut(const Graph& g, Vertex v, int r) {
  require_radius(r);
  if (!g.has_vertex(v)) throw std::invalid_argument("is_local_one_cut: bad vertex");
  return LocalCutKernel().is_one_cut(g, v, r);
}

std::vector<Vertex> local_one_cuts(const Graph& g, int r) {
  require_radius(r);
  LocalCutKernel kernel;
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (kernel.is_one_cut(g, v, r)) result.push_back(v);
  }
  return result;
}

bool is_local_two_cut(const Graph& g, Vertex u, Vertex v, int r) {
  require_radius(r);
  if (u == v) return false;
  if (!g.has_vertex(u) || !g.has_vertex(v)) throw std::invalid_argument("is_local_two_cut: bad vertex");
  LocalCutKernel kernel;
  return kernel.within(g, u, v, r) && kernel.pair(g, u, v, r).minimal;
}

std::vector<VertexPair> local_two_cuts(const Graph& g, int r) {
  require_radius(r);
  LocalCutKernel kernel;
  PairFilter filter(g);
  std::vector<VertexPair> result;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    // Partners lie within r of u; v > u emits each pair once, in
    // lexicographic order because partners are sorted.
    for (Vertex v : filter.partners(u, r)) {
      if (v > u && filter.links_split(u, v) && kernel.pair(g, u, v, r).minimal) {
        result.push_back({u, v});
      }
    }
  }
  return result;
}

std::vector<Vertex> vertices_in_local_two_cuts(const Graph& g, int r) {
  require_radius(r);
  LocalCutKernel kernel;
  PairFilter filter(g);
  std::vector<char> in(static_cast<std::size_t>(g.num_vertices()), 0);
  const auto is_in = [&](Vertex x) { return in[static_cast<std::size_t>(x)] != 0; };
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    // Each unordered pair once (u > v, a partner of v, so d(u, v) <= r); a
    // pair whose two ends are already in can add nothing.
    for (Vertex u : filter.partners(v, r)) {
      if (u <= v || (is_in(u) && is_in(v))) continue;
      if (filter.links_split(u, v) && kernel.pair(g, u, v, r).minimal) {
        in[static_cast<std::size_t>(u)] = 1;
        in[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  std::vector<Vertex> result;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (is_in(v)) result.push_back(v);
  }
  return result;
}

}  // namespace lmds::cuts
