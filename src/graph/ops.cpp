#include "graph/ops.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"

namespace lmds::graph {

std::vector<Vertex> Subgraph::lift(std::span<const Vertex> sub_vertices) const {
  std::vector<Vertex> result;
  result.reserve(sub_vertices.size());
  for (Vertex v : sub_vertices) result.push_back(to_parent[static_cast<std::size_t>(v)]);
  return result;
}

namespace {

// Normalizes one edit list: endpoint checks, u < v orientation, sort,
// duplicate rejection. `what` names the list in error messages.
std::vector<Edge> normalize_edits(const std::vector<Edge>& edits, const char* what) {
  std::vector<Edge> result;
  result.reserve(edits.size());
  for (Edge e : edits) {
    if (e.u < 0 || e.v < 0) {
      throw std::invalid_argument(std::string("apply_patch: negative endpoint in \"") + what +
                                  "\"");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("apply_patch: self-loop {" + std::to_string(e.u) + "," +
                                  std::to_string(e.v) + "} in \"" + what + "\"");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
    result.push_back(e);
  }
  std::sort(result.begin(), result.end());
  const auto dup = std::adjacent_find(result.begin(), result.end());
  if (dup != result.end()) {
    throw std::invalid_argument("apply_patch: duplicate edge {" + std::to_string(dup->u) + "," +
                                std::to_string(dup->v) + "} in \"" + what + "\"");
  }
  return result;
}

}  // namespace

PatchedGraph apply_patch(const Graph& parent, const GraphPatch& patch) {
  PatchedGraph result;
  result.added = normalize_edits(patch.add, "add");
  result.removed = normalize_edits(patch.del, "del");

  std::vector<Edge> overlap;
  std::set_intersection(result.added.begin(), result.added.end(), result.removed.begin(),
                        result.removed.end(), std::back_inserter(overlap));
  if (!overlap.empty()) {
    throw std::invalid_argument("apply_patch: edge {" + std::to_string(overlap.front().u) + "," +
                                std::to_string(overlap.front().v) +
                                "} appears in both \"add\" and \"del\"");
  }

  const int parent_n = parent.num_vertices();
  int n = parent_n;
  for (const Edge& e : result.added) n = std::max(n, e.v + 1);
  for (const Edge& e : result.removed) {
    if (e.v >= parent_n || !parent.has_edge(e.u, e.v)) {
      throw std::invalid_argument("apply_patch: deleted edge {" + std::to_string(e.u) + "," +
                                  std::to_string(e.v) + "} is not in the parent graph");
    }
  }
  for (const Edge& e : result.added) {
    if (e.v < parent_n && parent.has_edge(e.u, e.v)) {
      throw std::invalid_argument("apply_patch: added edge {" + std::to_string(e.u) + "," +
                                  std::to_string(e.v) + "} is already present");
    }
  }
  if (patch.n >= 0) {
    if (patch.n < n) {
      throw std::invalid_argument("apply_patch: \"n\"=" + std::to_string(patch.n) +
                                  " is below the required vertex count " + std::to_string(n) +
                                  " (patches never delete vertices)");
    }
    n = patch.n;
  }

  // Each edit once per endpoint as (row, other end), sorted: a run of one
  // row is a touched row, and every row between two runs is the parent's.
  std::vector<std::pair<Vertex, Vertex>> edits;
  edits.reserve(2 * (result.added.size() + result.removed.size()));
  for (const auto* list : {&result.added, &result.removed}) {
    for (const Edge& e : *list) {
      edits.emplace_back(e.u, e.v);
      edits.emplace_back(e.v, e.u);
    }
  }
  std::sort(edits.begin(), edits.end());

  const std::vector<std::size_t>& old_offsets = parent.offsets_;
  const std::vector<Vertex>& old_neighbors = parent.neighbors_;
  std::vector<std::size_t> offsets;
  offsets.reserve(static_cast<std::size_t>(n) + 1);
  std::vector<Vertex> neighbors;
  neighbors.reserve(old_neighbors.size() + 2 * result.added.size() - 2 * result.removed.size());
  // Untouched rows [a, b): the parent's rows are one block copy and their
  // offsets the parent's shifted by a constant; rows past the parent are
  // empty.
  const auto copy_rows = [&](Vertex a, Vertex b) {
    const Vertex split = std::max(a, std::min(b, static_cast<Vertex>(parent_n)));
    if (a < split) {
      const std::size_t from = old_offsets[static_cast<std::size_t>(a)];
      const std::size_t to = old_offsets[static_cast<std::size_t>(split)];
      const std::size_t base = neighbors.size();
      const auto first =
          offsets.insert(offsets.end(), old_offsets.begin() + a, old_offsets.begin() + split);
      std::for_each(first, offsets.end(), [from, base](std::size_t& o) { o = o - from + base; });
      neighbors.insert(neighbors.end(), old_neighbors.begin() + static_cast<std::ptrdiff_t>(from),
                       old_neighbors.begin() + static_cast<std::ptrdiff_t>(to));
    }
    offsets.resize(static_cast<std::size_t>(b), neighbors.size());
  };
  Vertex next = 0;  // first row not yet written
  for (auto run = edits.begin(); run != edits.end();) {
    const Vertex v = run->first;
    const auto run_end = std::find_if(run, edits.end(), [v](const auto& e) { return e.first != v; });
    copy_rows(next, v);
    // Rebuild this one row: the parent's row and the run, both sorted, merge.
    // The validation above guarantees that an added end is absent from the
    // row and a deleted one present, so an equal pair is a deletion.
    offsets.push_back(neighbors.size());
    const std::span<const Vertex> old =
        v < parent_n ? parent.neighbors(v) : std::span<const Vertex>{};
    auto edit = run;
    for (Vertex w : old) {
      for (; edit != run_end && edit->second < w; ++edit) neighbors.push_back(edit->second);
      if (edit != run_end && edit->second == w) {
        ++edit;
        continue;
      }
      neighbors.push_back(w);
    }
    for (; edit != run_end; ++edit) neighbors.push_back(edit->second);
    next = v + 1;
    run = run_end;
  }
  copy_rows(next, n);
  offsets.push_back(neighbors.size());
  result.graph = Graph(std::move(offsets), std::move(neighbors));
  return result;
}

Subgraph induced_subgraph(const Graph& g, std::span<const Vertex> vertices) {
  Subgraph result;
  result.to_parent.assign(vertices.begin(), vertices.end());
  std::sort(result.to_parent.begin(), result.to_parent.end());
  if (std::adjacent_find(result.to_parent.begin(), result.to_parent.end()) !=
      result.to_parent.end()) {
    throw std::invalid_argument("induced_subgraph: duplicate vertices");
  }
  result.from_parent.assign(static_cast<std::size_t>(g.num_vertices()), kNoVertex);
  for (std::size_t i = 0; i < result.to_parent.size(); ++i) {
    const Vertex p = result.to_parent[i];
    if (!g.has_vertex(p)) throw std::invalid_argument("induced_subgraph: vertex out of range");
    result.from_parent[static_cast<std::size_t>(p)] = static_cast<Vertex>(i);
  }
  // CSR-native assembly: to_parent is sorted, so relabelling is monotone and
  // every copied row stays sorted — the trusted constructor's invariants
  // hold by construction, no per-row sort or validating rebuild needed.
  const std::size_t k = result.to_parent.size();
  std::vector<std::size_t> offsets(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t deg = 0;
    for (Vertex w : g.neighbors(result.to_parent[i])) {
      if (result.from_parent[static_cast<std::size_t>(w)] != kNoVertex) ++deg;
    }
    offsets[i + 1] = offsets[i] + deg;
  }
  std::vector<Vertex> neighbors(offsets.back());
  for (std::size_t i = 0; i < k; ++i) {
    Vertex* out = neighbors.data() + offsets[i];
    for (Vertex w : g.neighbors(result.to_parent[i])) {
      const Vertex j = result.from_parent[static_cast<std::size_t>(w)];
      if (j != kNoVertex) *out++ = j;
    }
  }
  result.graph = detail::TrustedCsr::build(std::move(offsets), std::move(neighbors));
  return result;
}

Subgraph remove_vertices(const Graph& g, std::span<const Vertex> vertices) {
  std::vector<char> removed(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v : vertices) {
    if (!g.has_vertex(v)) throw std::invalid_argument("remove_vertices: vertex out of range");
    removed[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<Vertex> keep;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (!removed[static_cast<std::size_t>(v)]) keep.push_back(v);
  }
  return induced_subgraph(g, keep);
}

TwinReduction remove_true_twins(const Graph& g) {
  // Group vertices by their sorted closed neighbourhood.
  std::map<std::vector<Vertex>, std::vector<Vertex>> classes;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    classes[g.closed_neighborhood(v)].push_back(v);
  }
  TwinReduction result;
  result.representative.assign(static_cast<std::size_t>(g.num_vertices()), kNoVertex);
  std::vector<Vertex> reps;
  for (const auto& [nbhd, members] : classes) {
    const Vertex rep = *std::min_element(members.begin(), members.end());
    reps.push_back(rep);
    for (Vertex v : members) result.representative[static_cast<std::size_t>(v)] = rep;
  }
  std::sort(reps.begin(), reps.end());
  result.num_classes = static_cast<int>(reps.size());
  result.reduced = induced_subgraph(g, reps);
  return result;
}

std::vector<Vertex> TwinReduction::lift_solution(std::span<const Vertex> reduced_solution) const {
  return reduced.lift(reduced_solution);
}

Graph contract_partition(const Graph& g, const std::vector<std::vector<Vertex>>& parts) {
  std::vector<int> part_of(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) throw std::invalid_argument("contract_partition: empty part");
    for (Vertex v : parts[i]) {
      if (!g.has_vertex(v)) throw std::invalid_argument("contract_partition: vertex out of range");
      if (part_of[static_cast<std::size_t>(v)] != -1) {
        throw std::invalid_argument("contract_partition: parts overlap");
      }
      part_of[static_cast<std::size_t>(v)] = static_cast<int>(i);
    }
  }
  GraphBuilder b(static_cast<int>(parts.size()));
  for (const Edge e : g.edges()) {
    const int pu = part_of[static_cast<std::size_t>(e.u)];
    const int pv = part_of[static_cast<std::size_t>(e.v)];
    if (pu == -1 || pv == -1 || pu == pv) continue;
    b.add_edge(static_cast<Vertex>(pu), static_cast<Vertex>(pv));
  }
  return b.build();
}

Graph power(const Graph& g, int r) {
  if (r < 1) throw std::invalid_argument("power: r must be >= 1");
  std::vector<std::vector<Vertex>> adjacency(static_cast<std::size_t>(g.num_vertices()));
  BfsScratch scratch;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex sources[] = {v};
    mark_ball(g, sources, r, scratch);
    // The visit list starts with v itself; Graph's constructor sorts rows.
    adjacency[static_cast<std::size_t>(v)].assign(scratch.visited().begin() + 1,
                                                  scratch.visited().end());
  }
  return Graph(adjacency);
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  GraphBuilder builder(a.num_vertices() + b.num_vertices());
  for (const Edge e : a.edges()) builder.add_edge(e.u, e.v);
  const Vertex shift = a.num_vertices();
  for (const Edge e : b.edges()) builder.add_edge(e.u + shift, e.v + shift);
  return builder.build();
}

std::vector<std::vector<Vertex>> r_components(const Graph& g, std::span<const Vertex> s, int r) {
  if (r < 1) throw std::invalid_argument("r_components: r must be >= 1");
  // comp[v]: -2 outside S, -1 in S and not yet reached, else v's component.
  std::vector<int> comp(static_cast<std::size_t>(g.num_vertices()), -2);
  for (Vertex v : s) {
    if (!g.has_vertex(v)) throw std::invalid_argument("r_components: vertex out of range");
    comp[static_cast<std::size_t>(v)] = -1;
  }
  std::vector<std::vector<Vertex>> result;
  BfsScratch scratch;
  for (Vertex start : s) {
    if (comp[static_cast<std::size_t>(start)] != -1) continue;
    const int id = static_cast<int>(result.size());
    std::vector<Vertex>& members = result.emplace_back(1, start);
    comp[static_cast<std::size_t>(start)] = id;
    // The member list is the queue: all S-vertices within distance r of a
    // member join the same r-component.
    for (std::size_t head = 0; head < members.size(); ++head) {
      const Vertex sources[] = {members[head]};
      mark_ball(g, sources, r, scratch);
      for (Vertex w : scratch.visited()) {
        if (comp[static_cast<std::size_t>(w)] != -1) continue;
        comp[static_cast<std::size_t>(w)] = id;
        members.push_back(w);
      }
    }
    std::sort(members.begin(), members.end());
  }
  return result;
}

}  // namespace lmds::graph
