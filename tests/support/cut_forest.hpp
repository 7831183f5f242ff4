#pragma once
// Interesting-2-cut forests (§5.3): three families P1, P2, P3 of 2-cuts
// built from the SPQR tree such that (Proposition 5.8)
//   (1) every globally interesting vertex appears in some P_i together with
//       a friend, and
//   (2) within each P_i the cuts are pairwise non-crossing.
//
// The construction follows the paper's case analysis: all R-node virtual
// pairs and >=2-virtual P-node poles go to P1; S nodes (skeleton cycles of
// length k) contribute their virtual-edge pairs plus long-range cuts split
// across the families according to k and the positions of the virtual
// edges.

#include <array>
#include <vector>

#include "support/spqr_tree.hpp"

namespace lmds::spqr {

/// The three cut families.
struct CutForest {
  std::array<std::vector<cuts::VertexPair>, 3> families;

  /// All cuts of all families, deduplicated and sorted.
  std::vector<cuts::VertexPair> all() const;
};

/// Builds the forest for any connected graph: the graph is decomposed into
/// biconnected blocks and each block of >= 3 vertices contributes its
/// forest (a minimal 2-cut never spans blocks).
CutForest interesting_cut_forest(const Graph& g);

/// The biconnected-case construction (requires g 2-connected, >= 3
/// vertices).
CutForest interesting_cut_forest_biconnected(const Graph& g);

}  // namespace lmds::spqr
