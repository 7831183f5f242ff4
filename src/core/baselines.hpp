#pragma once
// The folklore rows of Table 1 plus a KSV-style bounded-expansion baseline.
//
//  * take_all            — 0 rounds, t-approx on K_{1,t}-minor-free graphs
//                          (footnote 4: MDS >= n/(Δ+1) and Δ <= t-1);
//  * tree_degree_rule    — 2 rounds, 3-approx on trees (footnote 3: all
//                          vertices of degree >= 2, with small-component
//                          fixups);
//  * ksv                 — an O(1)-round adaptation of Kublenz–Siebertz–
//                          Vigny [18] for classes of bounded expansion:
//                          take every vertex whose closed neighbourhood
//                          cannot be dominated by <= k other vertices, then
//                          greedily fix the leftovers. Stands in for the
//                          K_t / K_{s,t} rows of Table 1 (see
//                          docs/REPRODUCTION.md, note 6).

#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "local/simulator.hpp"

namespace lmds::core {

using graph::Graph;
using graph::Vertex;

/// The take-all rule at one vertex: always true (the registry's `take-all`
/// decide, through api::decide_each).
bool take_all_joins(const Graph& g, Vertex v);

/// All vertices, the ascending {v : take_all_joins(g, v)}. 0 rounds;
/// t-approximate on K_{1,t}-minor-free graphs.
std::vector<Vertex> take_all(const Graph& g);

/// The tree rule at one vertex: degree >= 2 or 0 joins, a pendant joins iff
/// its neighbour is pendant too and it has the smaller id. Reads ball(v, 2)
/// in O(1) (the registry's `tree-rule` decide).
bool tree_degree_rule_joins(const Graph& g, Vertex v);

/// Folklore tree rule: vertices of degree >= 2; a vertex of a component of
/// one or two vertices joins iff it has the smaller id. 2 rounds (the
/// degree is learned in round one, the pendant fixup in round two);
/// 3-approximate on trees with >= 3 vertices. The ascending
/// {v : tree_degree_rule_joins(g, v)}; `threads` shards the per-vertex rule
/// (<= 0 picks hardware_concurrency); output is bit-identical for any
/// thread count.
std::vector<Vertex> tree_degree_rule(const Graph& g, int threads = 1);

/// KSV-style rule with domination threshold k:
///   X  = { v : no set of <= k vertices other than v dominates N[v] },
///   then every vertex undominated by X adds the neighbour (or itself)
///   covering the most undominated vertices (min id tie-break).
/// Constant rounds; constant ratio on classes of bounded expansion with
/// suitable k (k = 2∇1+1 in [18]). Returns the ascending members of the
/// sorted, distinct `targets` in the answer on g, reading only
/// ball(targets, 6). Cost: one gamma search per vertex within distance 4
/// of the targets (see GammaWorkspace) plus O(Σ deg(v)^2) for the fixup.
/// `threads` shards every pass, with one workspace per chunk; output is
/// bit-identical for any thread count.
std::vector<Vertex> ksv(const Graph& g, int k, std::span<const Vertex> targets,
                        int threads = 1);

/// The whole KSV answer: ksv() with every vertex a target.
std::vector<Vertex> ksv_style(const Graph& g, int k, int threads = 1);

/// The reusable state of the gamma test. A call reads only N^2[v]: one
/// walk of the edges at N(v), O(Σ_{u ∈ N(v)} deg u), lists for each target
/// of N[v] the candidates of N^2[v] \ {v} covering it. Every candidate
/// that alone covers some target is taken; then a depth-first search per
/// size, from a lower bound up to min(cap, deg v), stops at the first size
/// that admits a cover. A search node costs O(deg v) plus the
/// covering lists of its uncovered targets, and prunes by two lower
/// bounds: the uncovered count over the largest cover, and a packing of
/// uncovered targets with disjoint covering lists. The search stack lives
/// in the workspace, so every degree takes the same path. The buffers grow
/// to the largest graph and ball seen and are reused by every call.
///
/// Single-owner, like graph::BfsScratch: one workspace per thread.
class GammaWorkspace {
 public:
  /// gamma(v) capped at `cap`, as gamma() below. Throws
  /// std::invalid_argument for a vertex out of range or cap == INT_MAX.
  int gamma(const Graph& g, Vertex v, int cap);

 private:
  enum class Step { Found, Dead, Open };

  bool cover_within(int size);        // a cover of <= size candidates?
  Step enter(int depth, int budget);  // bound, then pick the branch target
  int packing_bound(int budget);      // disjointly covered uncovered targets
  void choose(int c, int delta);      // delta +1 adds c, -1 removes it
  int covering(int t) const {  // candidates covering target t
    return target_offset_[static_cast<std::size_t>(t) + 1] -
           target_offset_[static_cast<std::size_t>(t)];
  }

  struct Frame {
    int next = 0;     // next branch in by_target_
    int end = 0;      // end of the pivot's covering list
    int chosen = -1;  // candidate taken at this depth
  };

  graph::BfsScratch slots_;            // candidates; dist = candidate index
  std::vector<int> by_target_;         // per target: its covering candidates
  std::vector<int> target_offset_;     //   (CSR offsets)
  std::vector<int> by_candidate_;      // per candidate: the targets it covers
  std::vector<int> candidate_offset_;  //   (CSR offsets)
  std::vector<int> covered_;           // per target: chosen candidates covering it
  std::vector<char> packed_;           // per candidate: marked by packing_bound
  std::vector<int> packed_list_;       //   (the marks to clear)
  std::vector<Frame> frames_;          // the search stack
  int targets_ = 0;                    // |N[v]|
  int uncovered_ = 0;
  int max_cover_ = 0;                  // most targets one candidate covers
};

/// gamma(v) of §5.5: the minimum number of vertices other than v needed to
/// dominate N[v]; returns a value > cap (specifically cap+1) when more than
/// `cap` are needed. Isolated vertices return cap+1 (nothing else can cover
/// them), so cap == INT_MAX throws std::invalid_argument. A one-off query:
/// it allocates a GammaWorkspace.
int gamma(const Graph& g, Vertex v, int cap);

}  // namespace lmds::core
