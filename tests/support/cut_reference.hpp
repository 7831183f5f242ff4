#pragma once
// Seed implementations of the r-local cut predicates, kept verbatim outside
// the library: per pair, a whole-graph BFS for d(u, v), an allocating
// induced_subgraph of the ball and two component labellings. They are the
// differential baselines the one-kernel rewrite (cuts::LocalCutKernel,
// src/cuts/local_cuts.hpp) is tested (tests/test_hotpath.cpp) and benched
// (bench/bench_perf.cpp) against.

#include <vector>

#include "cuts/local_cuts.hpp"

namespace lmds::cuts::detail {

bool is_local_one_cut_reference(const Graph& g, Vertex v, int r);
std::vector<Vertex> local_one_cuts_reference(const Graph& g, int r);
bool is_local_two_cut_reference(const Graph& g, Vertex u, Vertex v, int r);
std::vector<VertexPair> local_two_cuts_reference(const Graph& g, int r);
std::vector<Vertex> vertices_in_local_two_cuts_reference(const Graph& g, int r);

bool certifies_interesting_reference(const Graph& g, Vertex v, Vertex u, int r);
bool is_interesting_reference(const Graph& g, Vertex v, int r);
bool in_local_two_cut_reference(const Graph& g, Vertex v, int r);
std::vector<Vertex> interesting_vertices_reference(const Graph& g, int r);

}  // namespace lmds::cuts::detail
