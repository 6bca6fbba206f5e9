// Application 4 (Section 1.3): string editing via grid-DAG shortest paths
// and Monge-composite tube minima.
//
// Transform x (length m) into y (length n) with per-symbol costs D(x_i)
// (delete), I(y_j) (insert) and S(x_i, y_j) (substitute).  Wagner-Fischer
// solves it in O(mn) sequentially; the parallel algorithm of [AP89a] /
// [AALM88], which the paper ports to hypercubic networks, divides x into
// strips, computes each strip's boundary-to-boundary DIST matrix, and
// merges strips with (min,+) products of Monge matrices -- exactly the
// tube-minima problem of Table 1.3.  Measured depth is
// O(lg m) combine levels x O(lg n) per tube-minima call, reproducing the
// paper's O(lg n lg m) bound shape.
//
// DIST matrices are lower-triangular-infinite (a path cannot move left).
// To keep them Monge -- and the tube argmins monotone -- the infinite
// region is *graded*: DIST[j][k] = (j - k) * M for k < j with M larger
// than any finite path cost.  The graded pattern satisfies the Monge
// condition in every finite/infinite case mix and is preserved by
// (min,+) products; plain single-valued infinities are not (the cross
// difference can flip sign), which is why the costs here are integers
// and M is derived from the instance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monge/array.hpp"
#include "net/engine.hpp"
#include "pram/machine.hpp"

namespace pmonge::apps {

/// Per-symbol integer edit costs.  Defaults give classic unit edit
/// distance (substituting equal symbols is free).
struct EditCosts {
  std::int64_t ins = 1;
  std::int64_t del = 1;
  std::int64_t sub = 1;  // cost when symbols differ; equal symbols cost 0

  std::int64_t insert_cost(char c) const;
  std::int64_t delete_cost(char c) const;
  std::int64_t substitute_cost(char a, char b) const;

  /// Optional per-symbol overrides (index by unsigned char); empty means
  /// use the flat costs above.
  std::vector<std::int64_t> ins_table, del_table;
};

/// One step of an edit script.
struct EditOp {
  enum Kind { Keep, Substitute, Delete, Insert } kind;
  std::size_t i;  // position in x (Keep/Substitute/Delete)
  std::size_t j;  // position in y (Keep/Substitute/Insert)
};

struct EditResult {
  std::int64_t cost = 0;
  std::vector<EditOp> script;  // filled by the sequential solver
};

/// Wagner-Fischer sequential baseline, O(mn) time, with script recovery.
EditResult edit_distance_seq(const std::string& x, const std::string& y,
                             const EditCosts& costs);

/// The same DP's cost alone: one rolling row, O(mn) time and O(|y|)
/// memory, no script.  Equals edit_distance_seq(x, y, costs).cost; the
/// serve path answers string_edit with it.
std::int64_t edit_distance_cost(const std::string& x, const std::string& y,
                                const EditCosts& costs);

/// Parallel grid-DAG algorithm on the simulated PRAM: strip DIST matrices
/// merged by tube minima.  Returns the optimal cost; the machine's meter
/// carries the charged parallel depth/work.
std::int64_t edit_distance_par(pram::Machine& mach, const std::string& x,
                               const std::string& y, const EditCosts& costs);

/// The full DIST matrix of the whole grid (boundary column j on the top
/// row to boundary column k on the bottom row), exposed for tests; entry
/// (0, n) is the edit distance.  Infinite region graded as described.
monge::DenseArray<std::int64_t> edit_dist_matrix(pram::Machine& mach,
                                                 const std::string& x,
                                                 const std::string& y,
                                                 const EditCosts& costs);

/// Evaluate the cost of an edit script (test helper: scripts returned by
/// the sequential solver must re-evaluate to their claimed cost and
/// transform x into y).
std::int64_t evaluate_script(const std::string& x, const std::string& y,
                             const std::vector<EditOp>& script,
                             const EditCosts& costs);

/// Apply a script to x; returns the transformed string.
std::string apply_script(const std::string& x, const std::string& y,
                         const std::vector<EditOp>& script);

/// The paper's actual Application-4 claim: string editing in
/// O(lg n lg m) time on an nm-processor hypercube / CCC /
/// shuffle-exchange.  Same DIST-merging recursion as the PRAM variant,
/// but every (min,+) combine runs its slices in lockstep on 2n-node
/// sub-networks through the Theorem 3.2 core (real data movement,
/// emulation charging on CCC / shuffle-exchange).
struct HcEditResult {
  std::int64_t cost = 0;
  std::uint64_t steps = 0;        // measured network steps (max over
                                  // lockstep branches, summed over levels)
  std::size_t physical_nodes = 0; // peak concurrently-active host nodes
};
HcEditResult edit_distance_hc(net::TopologyKind kind, const std::string& x,
                              const std::string& y, const EditCosts& costs);

/// Longest common subsequence via the same machinery: with ins = del = 1
/// and sub = 2 (so substitution is never cheaper than delete+insert),
/// edit(x, y) = |x| + |y| - 2 * LCS(x, y).  Runs the parallel grid-DAG
/// algorithm; the classic example of the paper's grid-DAG framework
/// covering "other related problems".
std::size_t lcs_length_par(pram::Machine& mach, const std::string& x,
                           const std::string& y);

/// Sequential LCS by dynamic programming (oracle).
std::size_t lcs_length_seq(const std::string& x, const std::string& y);

/// The [RS88] comparator bounds the paper quotes (Section 1.3, item 4):
/// time for Ranka-Sahni's SIMD-hypercube algorithms at the given
/// processor counts, used by the benches for the comparison rows.
double ranka_sahni_time_n2p(std::size_t n, std::size_t p);   // n^2 p procs
double ranka_sahni_time_p2(std::size_t n, std::size_t p2);   // p^2 procs

}  // namespace pmonge::apps
