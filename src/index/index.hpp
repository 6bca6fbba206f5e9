// Monge query-index subsystem: build-once submatrix min/max structures
// for repeated-query serving.
//
// An Index preprocesses one registered Monge / inverse-Monge /
// staircase-Monge array into a balanced binary tree over blocks of
// kDefaultLeafRows consecutive rows.  Every node covers a contiguous
// row range and stores, per direction (min and max), its per-column
// optima as a segment tree plus the run-compressed breakpoint list of
// topmost owner rows (breakpoints.hpp).  A submatrix query
// [r0, r1] x [c0, c1] decomposes its row interval into at most two
// partial leaf-edge pieces and O(lg m) canonical tree nodes (answered by
// one segment-tree range query + one breakpoint binary search each).
//
// The pieces of a dense (Monge / inverse-Monge) operand are answered
// from stored envelopes.  The top piece is a suffix of its leaf's rows
// and the bottom piece a prefix, and each leaf stores, per direction,
// the run list of column optima of every prefix and every suffix of its
// rows (total monotonicity: k rows own at most k runs), each run with
// its owner's leftmost optimum over the run, plus every row's optima
// over kBlockCols-column blocks.  A piece is then two binary searches
// for the runs holding c0 and c1, a fold over the stored optima of the
// runs between them, and two single-row range optima read from the
// block optima plus at most 2 (kBlockCols - 1) cells.  A region that
// starts and ends strictly inside one leaf still runs SMAWK over its
// rows, and staircase operands keep the frontier scan for every piece.
// All candidates combine in ascending row order under the library tie
// convention, which makes the result bit-identical to a direct kernel
// run over the sub-block *by construction* (docs/indexing.md has the
// argument).
//
// Construction runs on the exec engine: one task per leaf block, forked
// by the engine's fork rule on the build's predicted work, so a small
// array builds on the calling thread.  Lookups take a shared
// lock; when the fault layer is armed, the index.node_corrupt site may
// flip a byte in a visited node's or leaf piece's payload, the FNV-1a
// checksum each carries detects it, and the payload is rebuilt from the
// source array (never from its children, which could be silently
// corrupt themselves) -- armed lookups therefore take the exclusive
// lock.  Disarmed, checksum verification is skipped entirely and the
// arming check is one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "exec/scratch.hpp"
#include "index/breakpoints.hpp"
#include "plan/cost_model.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"

namespace pmonge::index {

/// Rows per leaf block.  Small enough that a leaf's prefix and suffix
/// envelopes stay short and an in-leaf SMAWK stays O(leaf + width)
/// probes, large enough that the tree over a 4096-row array has ~127
/// nodes.
inline constexpr std::size_t kDefaultLeafRows = 64;

/// Columns per block of the per-row block optima that the leaf-edge
/// pieces read: a single-row range optimum scans at most
/// 2 (kBlockCols - 1) cells.
inline constexpr std::size_t kBlockCols = 32;

/// Result of one submatrix query.  `has == false` means the region holds
/// no finite entry (possible only for staircase arrays).
struct RegionOpt {
  bool has = false;
  std::int64_t value = 0;
  std::size_t row = 0;
  std::size_t col = 0;
};

/// Build-once submatrix min/max index over one registered array.
class Index {
 public:
  explicit Index(std::shared_ptr<const serve::ArrayEntry> entry,
                 std::size_t leaf_rows = kDefaultLeafRows);

  /// Construct every node (parallel over leaf blocks when the predicted
  /// work exceeds the fork rule's kappa).  Must be called exactly once,
  /// before any lookup.
  void build();

  /// Optimum of [r0, r1] x [c0, c1] (inclusive, caller-validated).
  /// Thread-safe; byte-identical to submatrix_direct on the same entry.
  RegionOpt submatrix_opt(bool maxima, std::size_t r0, std::size_t r1,
                          std::size_t c0, std::size_t c1);

  std::size_t nodes() const { return nodes_.size(); }
  std::size_t leaf_rows() const { return leaf_rows_; }
  std::size_t memory_bytes() const { return memory_bytes_; }
  std::uint64_t lookups() const { return lookups_.load(); }
  std::uint64_t corrupt_detected() const { return corrupt_detected_.load(); }
  std::uint64_t node_rebuilds() const { return node_rebuilds_.load(); }
  std::uint64_t build_us() const { return build_us_; }
  const serve::ArrayEntry& entry() const { return *entry_; }

 private:
  struct DirData {
    ColOptTree tree;
    Breakpoints bp;
  };
  struct Node {
    std::size_t row_lo = 0, row_hi = 0;  // covered rows [row_lo, row_hi)
    std::size_t blk_lo = 0, blk_hi = 0;  // covered leaf blocks
    std::size_t left = kNone, right = kNone;
    DirData dir[2];  // [0] minima, [1] maxima
    std::uint64_t checksum = 0;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct ColOpt {  // build/rebuild scratch: one node, one direction
    std::vector<std::int64_t> val;
    std::vector<std::uint32_t> owner;
  };

  // One leaf's edge-piece payload in one direction (dense kinds only).
  // For a leaf of L rows starting at lo, envelope e < L covers the prefix
  // rows [lo, lo + e] and envelope e >= L the suffix rows
  // [lo + 2L - 1 - e, lo + L).  Envelope e is the runs
  // [first[e], first[e + 1]) of its column optima: a start column, the
  // topmost owner row and that row's leftmost optimum over the run.
  // blk_val / blk_off hold each row's leftmost optimum over every
  // kBlockCols-column block (row-major, the column as an offset into the
  // block).
  struct PieceDir {
    std::vector<std::uint32_t> first;
    std::vector<std::uint32_t> start;
    std::vector<std::uint32_t> row;
    std::vector<std::int64_t> val;
    std::vector<std::uint32_t> col;
    std::vector<std::int64_t> blk_val;
    std::vector<std::uint8_t> blk_off;
  };
  struct Pieces {
    PieceDir dir[2];  // [0] minima, [1] maxima
    std::uint64_t checksum = 0;
  };

  std::size_t block_lo(std::size_t b) const { return b * leaf_rows_; }
  std::size_t block_hi(std::size_t b) const {
    const std::size_t hi = (b + 1) * leaf_rows_;
    return hi < entry_->data.rows() ? hi : entry_->data.rows();
  }

  std::size_t build_topology(std::size_t blo, std::size_t bhi);
  void compute_colopt(bool maxima, std::size_t row_lo, std::size_t row_hi,
                      ColOpt& out) const;
  void finalize_node(Node& nd, const ColOpt& mins, const ColOpt& maxs);
  void rebuild_node(Node& nd);
  void collect_canonical(std::size_t ni, std::size_t blo, std::size_t bhi,
                         exec::ScratchVector<std::size_t>& out) const;
  void build_pieces(std::size_t b, Pieces& p) const;
  void sweep(bool maxima, bool upward, std::size_t lo, std::size_t len,
             PieceDir& pd) const;
  void leaf_colopt(const PieceDir& pd, std::size_t len, ColOpt& out) const;
  void edge_piece(bool maxima, bool armed, std::size_t b, std::size_t a,
                  std::size_t z, std::size_t c0, std::size_t c1,
                  RegionOpt& best);
  static std::uint64_t node_checksum(const Node& nd);
  static std::uint64_t pieces_checksum(const Pieces& p);
  static std::size_t pieces_bytes(const Pieces& p);

  std::shared_ptr<const serve::ArrayEntry> entry_;
  std::size_t leaf_rows_;
  std::size_t num_blocks_ = 0;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::vector<Pieces> pieces_;  // one per leaf block; none for staircase
  std::size_t memory_bytes_ = 0;
  std::uint64_t build_us_ = 0;
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> corrupt_detected_{0};
  std::atomic<std::uint64_t> node_rebuilds_{0};
  mutable std::shared_mutex mu_;  // exclusive only when faults are armed
};

/// Direct (unindexed) submatrix optimum: the fallback the batcher runs
/// when no index exists, dispatched by planner algorithm.  Every variant
/// returns the same bytes as Index::submatrix_opt:
///   Brute      -- row-major scan with strict lexicographic improvement,
///   Sequential -- per-row SMAWK over the sub-block, combined ascending,
///   Parallel   -- per-row optima via the exec engine's deterministic
///                 reduce (the tie order is a total order, so the chunked
///                 association cannot change the answer).
/// Staircase arrays always use the finite-prefix frontier scan (SMAWK
/// assumes total monotonicity, which padding infinities break).
RegionOpt submatrix_direct(const serve::ArrayEntry& entry, bool maxima,
                           plan::Algo algo, std::size_t r0, std::size_t r1,
                           std::size_t c0, std::size_t c1);

/// Registry-keyed index table for the serve layer.  Build publishes a
/// fully-constructed Index (lookups never observe a partial build);
/// drop is the `unregister` invalidation hook -- an index must never
/// survive its array.
class IndexManager {
 public:
  struct BuildInfo {
    std::size_t nodes = 0;
    std::size_t leaf_rows = 0;
    std::size_t memory_bytes = 0;
  };

  /// Build (or return the existing) index for `id`.  Idempotent: the
  /// response fields are a pure function of the array contents.
  BuildInfo build(std::uint64_t id,
                  std::shared_ptr<const serve::ArrayEntry> entry);
  bool drop(std::uint64_t id);
  std::shared_ptr<Index> get(std::uint64_t id) const;
  std::size_t count() const;

  /// Aggregate counters for the `stats` op / Prometheus exposition.
  serve::Json stats_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Index>> indexes_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> drops_{0};
  // Counters of dropped indexes live on here so `stats` totals survive
  // an unregister.
  std::atomic<std::uint64_t> retired_lookups_{0};
  std::atomic<std::uint64_t> retired_corrupt_{0};
  std::atomic<std::uint64_t> retired_rebuilds_{0};
};

}  // namespace pmonge::index
