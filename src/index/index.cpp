#include "index/index.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "monge/smawk.hpp"
#include "obs/trace.hpp"
#include "support/fnv.hpp"

namespace pmonge::index {

namespace {

using DenseSub = monge::SubArray<monge::DenseArray<std::int64_t>>;

template <class T>
std::uint64_t fnv1a_vec(std::uint64_t h, const std::vector<T>& v) {
  return support::fnv1a(h, v.data(), v.size() * sizeof(T));
}

template <class T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

bool better(bool maxima, std::int64_t v, std::int64_t w) {
  return maxima ? v > w : v < w;
}

/// kBlockCols-column blocks across n columns, the last one possibly short.
std::size_t block_count(std::size_t n) {
  return (n + kBlockCols - 1) / kBlockCols;
}

/// One row's leftmost optimum over a column range.
struct ColBest {
  std::int64_t value = 0;
  std::size_t col = 0;
};

/// Leftmost optimum of row r over [c0, c1], ascending with strict
/// improvement: whole kBlockCols-column blocks inside the range read the
/// row's block optima (`bval` / `boff`), the cut blocks at either end
/// scan their cells.
ColBest row_range_opt(const monge::DenseArray<std::int64_t>& a, bool maxima,
                      std::size_t r, const std::int64_t* bval,
                      const std::uint8_t* boff, std::size_t c0,
                      std::size_t c1) {
  const std::size_t n = a.cols();
  ColBest best{a(r, c0), c0};
  std::size_t j = c0;
  while (j <= c1) {
    const std::size_t blk = j / kBlockCols;
    const std::size_t blk_end = std::min(n, (blk + 1) * kBlockCols) - 1;
    if (j == blk * kBlockCols && blk_end <= c1) {
      if (better(maxima, bval[blk], best.value)) {
        best = {bval[blk], j + boff[blk]};
      }
      j = blk_end + 1;
      continue;
    }
    const std::size_t to = std::min(c1, blk_end);
    for (; j <= to; ++j) {
      const std::int64_t v = a(r, j);
      if (better(maxima, v, best.value)) best = {v, j};
    }
  }
  return best;
}

/// Fold candidate (v, r, c) into `best` under the global tie convention:
/// better value wins; equal values break to the smaller column; equal
/// (value, column) keeps the incumbent -- so feeding candidates in
/// ascending row order leaves the topmost row.
void combine_region(bool maxima, std::int64_t v, std::size_t r, std::size_t c,
                    RegionOpt& best) {
  if (!best.has) {
    best = {true, v, r, c};
    return;
  }
  const bool better = maxima
                          ? (v > best.value || (v == best.value && c < best.col))
                          : (v < best.value || (v == best.value && c < best.col));
  if (better) best = {true, v, r, c};
}

/// Leftmost per-row optima of a dense sub-block, dispatched on the
/// registered kind.  SMAWK's four wrapper variants all return the
/// leftmost optimum, which is exactly the tie the index stores.
std::vector<monge::RowOpt<std::int64_t>> dense_row_opts(
    const serve::ArrayEntry& e, bool maxima, const DenseSub& sub) {
  const bool inverse = e.kind == serve::ArrayEntry::Kind::InverseMonge;
  if (maxima) {
    return inverse ? monge::smawk_row_maxima_inverse_monge(sub)
                   : monge::smawk_row_maxima_monge(sub);
  }
  return inverse ? monge::smawk_row_minima_inverse_monge(sub)
                 : monge::smawk_row_minima(sub);
}

/// Staircase piece: frontier-bounded row-major scan over
/// [a, b] x [c0, c1].  Top-down with strict improvement == topmost tie.
void staircase_piece(const serve::ArrayEntry& e, bool maxima, std::size_t a,
                     std::size_t b, std::size_t c0, std::size_t c1,
                     RegionOpt& best) {
  for (std::size_t r = a; r <= b; ++r) {
    const std::size_t f = e.frontier[r] < c1 + 1 ? e.frontier[r] : c1 + 1;
    for (std::size_t j = c0; j < f; ++j) {
      combine_region(maxima, e.data(r, j), r, j, best);
    }
  }
}

/// Dense piece via one SMAWK pass over the sub-block, rows combined in
/// ascending order.
void dense_piece(const serve::ArrayEntry& e, bool maxima, std::size_t a,
                 std::size_t b, std::size_t c0, std::size_t c1,
                 RegionOpt& best) {
  const DenseSub sub(e.data, a, b - a + 1, c0, c1 - c0 + 1);
  const auto opt = dense_row_opts(e, maxima, sub);
  for (std::size_t i = 0; i < opt.size(); ++i) {
    combine_region(maxima, opt[i].value, a + i, c0 + opt[i].col, best);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

Index::Index(std::shared_ptr<const serve::ArrayEntry> entry,
             std::size_t leaf_rows)
    : entry_(std::move(entry)), leaf_rows_(leaf_rows == 0 ? 1 : leaf_rows) {}

std::size_t Index::build_topology(std::size_t blo, std::size_t bhi) {
  const std::size_t ni = nodes_.size();
  nodes_.emplace_back();
  nodes_[ni].blk_lo = blo;
  nodes_[ni].blk_hi = bhi;
  nodes_[ni].row_lo = block_lo(blo);
  nodes_[ni].row_hi = block_hi(bhi - 1);
  if (bhi - blo > 1) {
    const std::size_t mid = blo + (bhi - blo) / 2;
    const std::size_t l = build_topology(blo, mid);
    const std::size_t r = build_topology(mid, bhi);
    nodes_[ni].left = l;
    nodes_[ni].right = r;
  }
  return ni;
}

void Index::compute_colopt(bool maxima, std::size_t row_lo, std::size_t row_hi,
                           ColOpt& out) const {
  const serve::ArrayEntry& e = *entry_;
  const std::size_t w = e.data.cols();
  out.val.assign(w, 0);
  out.owner.assign(w, kNoOwner);
  if (e.kind == serve::ArrayEntry::Kind::Staircase) {
    // Frontier geometry alone decides finiteness (the rows holding a
    // finite entry of column j form a prefix); ascending-row scan with
    // strict improvement keeps the topmost owner.
    for (std::size_t r = row_lo; r < row_hi; ++r) {
      const std::size_t f = e.frontier[r] < w ? e.frontier[r] : w;
      for (std::size_t j = 0; j < f; ++j) {
        const std::int64_t v = e.data(r, j);
        if (out.owner[j] == kNoOwner ||
            (maxima ? v > out.val[j] : v < out.val[j])) {
          out.val[j] = v;
          out.owner[j] = static_cast<std::uint32_t>(r);
        }
      }
    }
    return;
  }
  // Dense: per-column optima are the per-row optima of the transposed
  // block (transposition preserves Monge-ness and inverse-Monge-ness);
  // SMAWK's leftmost transposed column is the topmost row.
  const DenseSub block(e.data, row_lo, row_hi - row_lo, 0, w);
  const monge::Transpose<DenseSub> t(block);
  const bool inverse = e.kind == serve::ArrayEntry::Kind::InverseMonge;
  std::vector<monge::RowOpt<std::int64_t>> opt;
  if (maxima) {
    opt = inverse ? monge::smawk_row_maxima_inverse_monge(t)
                  : monge::smawk_row_maxima_monge(t);
  } else {
    opt = inverse ? monge::smawk_row_minima_inverse_monge(t)
                  : monge::smawk_row_minima(t);
  }
  for (std::size_t j = 0; j < w; ++j) {
    out.val[j] = opt[j].value;
    out.owner[j] = static_cast<std::uint32_t>(row_lo + opt[j].col);
  }
}

std::uint64_t Index::node_checksum(const Node& nd) {
  std::uint64_t h = support::kFnvOffset;
  for (const DirData& d : nd.dir) {
    h = fnv1a_vec(h, d.tree.raw_vals());
    h = fnv1a_vec(h, d.tree.raw_cols());
    h = fnv1a_vec(h, d.bp.raw_starts());
    h = fnv1a_vec(h, d.bp.raw_rows());
  }
  return h;
}

std::uint64_t Index::pieces_checksum(const Pieces& p) {
  std::uint64_t h = support::kFnvOffset;
  for (const PieceDir& d : p.dir) {
    h = fnv1a_vec(h, d.first);
    h = fnv1a_vec(h, d.start);
    h = fnv1a_vec(h, d.row);
    h = fnv1a_vec(h, d.val);
    h = fnv1a_vec(h, d.col);
    h = fnv1a_vec(h, d.blk_val);
    h = fnv1a_vec(h, d.blk_off);
  }
  return h;
}

std::size_t Index::pieces_bytes(const Pieces& p) {
  // size(), not capacity(), like the node structures.
  std::size_t bytes = sizeof(Pieces);
  for (const PieceDir& d : p.dir) {
    bytes += vec_bytes(d.first) + vec_bytes(d.start) + vec_bytes(d.row) +
             vec_bytes(d.val) + vec_bytes(d.col) + vec_bytes(d.blk_val) +
             vec_bytes(d.blk_off);
  }
  return bytes;
}

void Index::build_pieces(std::size_t b, Pieces& p) const {
  const auto& a = entry_->data;
  const std::size_t lo = block_lo(b);
  const std::size_t len = block_hi(b) - lo;
  const std::size_t n = a.cols();
  const std::size_t nb = block_count(n);
  PieceDir& mins = p.dir[0];
  PieceDir& maxs = p.dir[1];
  for (PieceDir& pd : p.dir) {
    pd = PieceDir{};
    pd.blk_val.resize(len * nb);
    pd.blk_off.resize(len * nb);
  }
  // Every row's block optima, both directions in one pass over the leaf,
  // so the sweeps below find its rows in cache.
  for (std::size_t i = 0; i < len; ++i) {
    for (std::size_t blk = 0; blk < nb; ++blk) {
      const std::size_t j0 = blk * kBlockCols;
      const std::size_t j1 = std::min(n, j0 + kBlockCols);
      std::int64_t lov = a(lo + i, j0);
      std::int64_t hiv = lov;
      std::size_t loj = j0;
      std::size_t hij = j0;
      for (std::size_t j = j0 + 1; j < j1; ++j) {
        const std::int64_t v = a(lo + i, j);
        if (v < lov) {
          lov = v;
          loj = j;
        }
        if (v > hiv) {
          hiv = v;
          hij = j;
        }
      }
      mins.blk_val[i * nb + blk] = lov;
      mins.blk_off[i * nb + blk] = static_cast<std::uint8_t>(loj - j0);
      maxs.blk_val[i * nb + blk] = hiv;
      maxs.blk_off[i * nb + blk] = static_cast<std::uint8_t>(hij - j0);
    }
  }
  for (int d = 0; d < 2; ++d) {
    PieceDir& pd = p.dir[d];
    sweep(d == 1, false, lo, len, pd);  // prefixes: rows added below
    sweep(d == 1, true, lo, len, pd);   // suffixes: rows added above
    pd.first.push_back(static_cast<std::uint32_t>(pd.start.size()));
  }
  p.checksum = pieces_checksum(p);
}

// Appends one envelope per row of the leaf [lo, lo + len), adding rows
// top-down (prefixes) or bottom-up (suffixes).  Total monotonicity makes
// the columns a new row takes from the previous envelope one interval
// anchored at the first or the last column, so the new envelope is the
// previous one cut at one boundary plus one run.  A row added below wins
// only where it is strictly better, and one added above also wins ties:
// either way each column's owner stays its topmost optimal row.
void Index::sweep(bool maxima, bool upward, std::size_t lo, std::size_t len,
                  PieceDir& pd) const {
  const auto& a = entry_->data;
  const std::size_t n = a.cols();
  const std::size_t nb = block_count(n);
  const auto range_opt = [&](std::size_t r, std::size_t c0, std::size_t c1) {
    const std::size_t off = (r - lo) * nb;
    return row_range_opt(a, maxima, r, pd.blk_val.data() + off,
                         pd.blk_off.data() + off, c0, c1);
  };
  const auto push = [&](std::size_t start, std::size_t r, ColBest o) {
    pd.start.push_back(static_cast<std::uint32_t>(start));
    pd.row.push_back(static_cast<std::uint32_t>(r));
    pd.val.push_back(o.value);
    pd.col.push_back(static_cast<std::uint32_t>(o.col));
  };
  const auto copy = [&](std::size_t i) {
    push(pd.start[i], pd.row[i], ColBest{pd.val[i], pd.col[i]});
  };
  for (std::size_t step = 0; step < len; ++step) {
    const std::size_t r = upward ? lo + len - 1 - step : lo + step;
    const std::size_t p0 = pd.first.empty() ? 0 : pd.first.back();
    const std::size_t p1 = pd.start.size();
    pd.first.push_back(static_cast<std::uint32_t>(p1));
    if (step == 0) {
      push(0, r, range_opt(r, 0, n - 1));
      continue;
    }
    // Runs [p0, p1) are the previous envelope.
    const auto run_of = [&](std::size_t j) {
      return static_cast<std::size_t>(
          std::upper_bound(pd.start.begin() + static_cast<std::ptrdiff_t>(p0),
                           pd.start.begin() + static_cast<std::ptrdiff_t>(p1),
                           static_cast<std::uint32_t>(j)) -
          pd.start.begin() - 1);
    };
    const auto wins = [&](std::size_t j) {
      const std::int64_t v = a(r, j);
      const std::int64_t w = a(pd.row[run_of(j)], j);
      return upward ? !better(maxima, w, v) : better(maxima, v, w);
    };
    const bool first_col = wins(0);
    const bool last_col = wins(n - 1);
    if (first_col == last_col) {
      if (first_col) {
        push(0, r, range_opt(r, 0, n - 1));
      } else {
        for (std::size_t i = p0; i < p1; ++i) copy(i);
      }
      continue;
    }
    // Binary search between a winning and a losing column: the new row
    // owns [0, t) when it wins column 0, else [t, n).
    std::size_t win = first_col ? 0 : n - 1;
    std::size_t lose = first_col ? n - 1 : 0;
    while ((win > lose ? win - lose : lose - win) > 1) {
      const std::size_t mid = (win + lose) / 2;
      (wins(mid) ? win : lose) = mid;
    }
    const std::size_t t = first_col ? lose : win;
    if (first_col) {
      push(0, r, range_opt(r, 0, t - 1));
      // The run holding t keeps [t, end); its stored optimum survives
      // when it lies there.
      const std::size_t i = run_of(t);
      if (pd.start[i] < t) {
        const std::size_t end = i + 1 < p1 ? pd.start[i + 1] : n;
        push(t, pd.row[i],
             pd.col[i] >= t ? ColBest{pd.val[i], pd.col[i]}
                            : range_opt(pd.row[i], t, end - 1));
      } else {
        copy(i);
      }
      for (std::size_t k = i + 1; k < p1; ++k) copy(k);
    } else {
      // The run holding t - 1 keeps [start, t).
      const std::size_t i = run_of(t - 1);
      for (std::size_t k = p0; k < i; ++k) copy(k);
      const std::size_t end = i + 1 < p1 ? pd.start[i + 1] : n;
      if (end > t) {
        push(pd.start[i], pd.row[i],
             pd.col[i] < t ? ColBest{pd.val[i], pd.col[i]}
                           : range_opt(pd.row[i], pd.start[i], t - 1));
      } else {
        copy(i);
      }
      push(t, r, range_opt(r, t, n - 1));
    }
  }
}

void Index::leaf_colopt(const PieceDir& pd, std::size_t len,
                        ColOpt& out) const {
  // The prefix envelope of all len rows holds the leaf's column owners.
  const auto& a = entry_->data;
  const std::size_t n = a.cols();
  out.val.assign(n, 0);
  out.owner.assign(n, kNoOwner);
  const std::size_t p1 = pd.first[len];
  for (std::size_t i = pd.first[len - 1]; i < p1; ++i) {
    const std::size_t end = i + 1 < p1 ? pd.start[i + 1] : n;
    for (std::size_t j = pd.start[i]; j < end; ++j) {
      out.val[j] = a(pd.row[i], j);
      out.owner[j] = pd.row[i];
    }
  }
}

void Index::finalize_node(Node& nd, const ColOpt& mins, const ColOpt& maxs) {
  nd.dir[0].tree.build(false, mins.val, mins.owner);
  nd.dir[0].bp.build(mins.owner);
  nd.dir[1].tree.build(true, maxs.val, maxs.owner);
  nd.dir[1].bp.build(maxs.owner);
  nd.checksum = node_checksum(nd);
}

void Index::rebuild_node(Node& nd) {
  // Always from the source array, leaf-style: merging children could
  // silently propagate a corruption the checksum of THIS node cannot
  // see.
  ColOpt mins, maxs;
  compute_colopt(false, nd.row_lo, nd.row_hi, mins);
  compute_colopt(true, nd.row_lo, nd.row_hi, maxs);
  finalize_node(nd, mins, maxs);
}

void Index::build() {
  obs::Span span("index.build");
  const auto t0 = std::chrono::steady_clock::now();
  const serve::ArrayEntry& e = *entry_;
  const std::size_t m = e.data.rows();
  const std::size_t w = e.data.cols();
  num_blocks_ = (m + leaf_rows_ - 1) / leaf_rows_;
  nodes_.clear();
  nodes_.reserve(2 * num_blocks_);
  build_topology(0, num_blocks_);

  // One task per leaf block.  A dense leaf reads its rows x w cells once
  // for the block optima of both directions, runs its four envelope
  // sweeps on them while they are in cache, and takes its column optima
  // from the prefix envelope of all its rows; a staircase leaf scans its
  // finite cells once per direction.  Either way a leaf predicts
  // 2 * rows * w units, and the fork rule keeps a build predicted at
  // most kappa on the calling thread.
  const bool staircase = e.kind == serve::ArrayEntry::Kind::Staircase;
  pieces_.assign(staircase ? 0 : num_blocks_, Pieces{});
  std::vector<std::size_t> leaves;
  leaves.reserve(num_blocks_);
  std::uint64_t work = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].left != kNone) continue;
    leaves.push_back(i);
    const std::size_t rows = nodes_[i].row_hi - nodes_[i].row_lo;
    work += 2 * static_cast<std::uint64_t>(rows) * w;
  }
  std::vector<ColOpt> mins(nodes_.size()), maxs(nodes_.size());
  exec::parallel_tasks(leaves.size(), work, [&](std::size_t t) {
    const std::size_t ni = leaves[t];
    const Node& nd = nodes_[ni];
    if (staircase) {
      compute_colopt(false, nd.row_lo, nd.row_hi, mins[ni]);
      compute_colopt(true, nd.row_lo, nd.row_hi, maxs[ni]);
      return;
    }
    Pieces& p = pieces_[nd.blk_lo];
    build_pieces(nd.blk_lo, p);
    leaf_colopt(p.dir[0], nd.row_hi - nd.row_lo, mins[ni]);
    leaf_colopt(p.dir[1], nd.row_hi - nd.row_lo, maxs[ni]);
  });

  // Internal nodes merge their children's per-column optima column-wise.
  // build_topology creates parents before children, so a descending
  // index walk sees children first.  The upper (left) child wins value
  // ties, keeping owners topmost.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    const Node& nd = nodes_[i];
    if (nd.left == kNone) continue;
    for (int d = 0; d < 2; ++d) {
      const bool maxima = d == 1;
      const ColOpt& up = maxima ? maxs[nd.left] : mins[nd.left];
      const ColOpt& lo = maxima ? maxs[nd.right] : mins[nd.right];
      ColOpt& out = maxima ? maxs[i] : mins[i];
      out.val.assign(w, 0);
      out.owner.assign(w, kNoOwner);
      for (std::size_t j = 0; j < w; ++j) {
        if (up.owner[j] == kNoOwner) {
          out.val[j] = lo.val[j];
          out.owner[j] = lo.owner[j];
        } else if (lo.owner[j] == kNoOwner ||
                   !(maxima ? lo.val[j] > up.val[j] : lo.val[j] < up.val[j])) {
          out.val[j] = up.val[j];
          out.owner[j] = up.owner[j];
        } else {
          out.val[j] = lo.val[j];
          out.owner[j] = lo.owner[j];
        }
      }
    }
  }

  memory_bytes_ = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    finalize_node(nodes_[i], mins[i], maxs[i]);
    memory_bytes_ += sizeof(Node);
    for (const DirData& d : nodes_[i].dir) {
      memory_bytes_ += d.tree.memory_bytes() + d.bp.memory_bytes();
    }
  }
  for (const Pieces& p : pieces_) memory_bytes_ += pieces_bytes(p);
  build_us_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  span.set_arg("nodes", nodes_.size());
}

void Index::collect_canonical(std::size_t ni, std::size_t blo, std::size_t bhi,
                              exec::ScratchVector<std::size_t>& out) const {
  const Node& nd = nodes_[ni];
  if (blo <= nd.blk_lo && nd.blk_hi <= bhi) {
    out.push_back(ni);
    return;
  }
  if (nd.left == kNone) return;
  const std::size_t mid = nodes_[nd.left].blk_hi;
  if (blo < mid) collect_canonical(nd.left, blo, bhi, out);
  if (bhi > mid) collect_canonical(nd.right, blo, bhi, out);
}

// Rows [a, z] of leaf b, a prefix or a suffix of it, over [c0, c1].
void Index::edge_piece(bool maxima, bool armed, std::size_t b, std::size_t a,
                       std::size_t z, std::size_t c0, std::size_t c1,
                       RegionOpt& best) {
  if (pieces_.empty()) {
    staircase_piece(*entry_, maxima, a, z, c0, c1, best);
    return;
  }
  Pieces& p = pieces_[b];
  const std::size_t dslot = maxima ? 1 : 0;
  if (armed) {
    if (fault::should_fire(fault::Site::IndexNodeCorrupt)) {
      // Every envelope holds at least one run, so val is never empty.
      auto& vals = p.dir[dslot].val;
      auto* bytes = reinterpret_cast<unsigned char*>(vals.data());
      bytes[(vals.size() * sizeof(std::int64_t)) / 2] ^= 0x5a;
    }
    if (pieces_checksum(p) != p.checksum) {
      corrupt_detected_.fetch_add(1, std::memory_order_relaxed);
      build_pieces(b, p);
      node_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const PieceDir& pd = p.dir[dslot];
  const auto& arr = entry_->data;
  const std::size_t lo = block_lo(b);
  const std::size_t len = block_hi(b) - lo;
  const std::size_t nb = block_count(arr.cols());
  const std::size_t e = a == lo ? z - lo : 2 * len - 1 - (a - lo);
  const std::uint32_t* s = pd.start.data();
  const std::uint32_t* p0 = s + pd.first[e];
  const std::uint32_t* p1 = s + pd.first[e + 1];
  const auto i0 = static_cast<std::size_t>(
      std::upper_bound(p0, p1, static_cast<std::uint32_t>(c0)) - s - 1);
  const auto i1 = static_cast<std::size_t>(
      std::upper_bound(s + i0, p1, static_cast<std::uint32_t>(c1)) - s - 1);
  // Run i's optimum over [from, to] within it: the stored one when it
  // lies there, else a range optimum of the owner row.
  const auto part = [&](std::size_t i, std::size_t from, std::size_t to) {
    if (pd.col[i] >= from && pd.col[i] <= to) {
      return ColBest{pd.val[i], pd.col[i]};
    }
    const std::size_t off = (pd.row[i] - lo) * nb;
    return row_range_opt(arr, maxima, pd.row[i], pd.blk_val.data() + off,
                         pd.blk_off.data() + off, from, to);
  };
  // Runs ascend by column, so strict improvement keeps the leftmost.
  ColBest opt = part(i0, c0, i0 == i1 ? c1 : s[i0 + 1] - 1);
  std::size_t row = pd.row[i0];
  for (std::size_t i = i0 + 1; i < i1; ++i) {
    if (better(maxima, pd.val[i], opt.value)) {
      opt = {pd.val[i], pd.col[i]};
      row = pd.row[i];
    }
  }
  if (i1 != i0) {
    const ColBest last = part(i1, s[i1], c1);
    if (better(maxima, last.value, opt.value)) {
      opt = last;
      row = pd.row[i1];
    }
  }
  combine_region(maxima, opt.value, row, opt.col, best);
}

RegionOpt Index::submatrix_opt(bool maxima, std::size_t r0, std::size_t r1,
                               std::size_t c0, std::size_t c1) {
  obs::Span span("index.lookup");
  span.set_detail(maxima ? "max" : "min");
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const bool armed = fault::armed();
  // Armed lookups verify checksums and may rebuild nodes in place, so
  // they serialize; the common disarmed path shares the lock.
  std::shared_lock<std::shared_mutex> shared(mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(mu_, std::defer_lock);
  if (armed) {
    exclusive.lock();
  } else {
    shared.lock();
  }

  RegionOpt best;
  const std::size_t dslot = maxima ? 1 : 0;
  // Per-lookup scratch: the O(lg m) canonical-node list bumps this
  // thread's arena instead of allocating per query.
  exec::ScratchScope scratch;
  const auto canonical = [&](std::size_t fb0, std::size_t fb1) {
    auto canon = exec::scratch_vector<std::size_t>();
    collect_canonical(0, fb0, fb1 + 1, canon);
    for (const std::size_t ni : canon) {
      Node& nd = nodes_[ni];
      if (armed) {
        if (fault::should_fire(fault::Site::IndexNodeCorrupt)) {
          auto& vals = nd.dir[dslot].tree.mutable_vals();
          if (!vals.empty()) {
            auto* bytes = reinterpret_cast<unsigned char*>(vals.data());
            bytes[(vals.size() * sizeof(std::int64_t)) / 2] ^= 0x5a;
          }
        }
        if (node_checksum(nd) != nd.checksum) {
          corrupt_detected_.fetch_add(1, std::memory_order_relaxed);
          rebuild_node(nd);
          node_rebuilds_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const DirData& d = nd.dir[dslot];
      const auto [v, c] = d.tree.query(maxima, c0, c1);
      if (c == kEmptyCol) continue;
      const std::uint32_t row = d.bp.owner(static_cast<std::size_t>(c));
      combine_region(maxima, v, row, static_cast<std::size_t>(c), best);
    }
  };

  // Decompose [r0, r1] into canonical nodes over the fully-covered
  // blocks plus <= 2 leaf-edge pieces (a suffix of leaf b0, a prefix of
  // leaf b1), evaluated in ascending row order so first-wins ties stay
  // topmost.  Only a region strictly inside one leaf is solved directly.
  const std::size_t b0 = r0 / leaf_rows_;
  const std::size_t b1 = r1 / leaf_rows_;
  const bool cut_top = r0 != block_lo(b0);
  const bool cut_bottom = r1 + 1 != block_hi(b1);
  if (b0 == b1 && cut_top && cut_bottom) {
    if (entry_->kind == serve::ArrayEntry::Kind::Staircase) {
      staircase_piece(*entry_, maxima, r0, r1, c0, c1, best);
    } else {
      dense_piece(*entry_, maxima, r0, r1, c0, c1, best);
    }
  } else if (b0 == b1) {
    if (cut_top || cut_bottom) {
      edge_piece(maxima, armed, b0, r0, r1, c0, c1, best);
    } else {
      canonical(b0, b0);
    }
  } else {
    if (cut_top) edge_piece(maxima, armed, b0, r0, block_hi(b0) - 1, c0, c1, best);
    const std::size_t fb0 = cut_top ? b0 + 1 : b0;
    const std::size_t fb1 = cut_bottom ? b1 - 1 : b1;
    if (fb0 <= fb1) canonical(fb0, fb1);
    if (cut_bottom) edge_piece(maxima, armed, b1, block_lo(b1), r1, c0, c1, best);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Direct fallback
// ---------------------------------------------------------------------------

RegionOpt submatrix_direct(const serve::ArrayEntry& entry, bool maxima,
                           plan::Algo algo, std::size_t r0, std::size_t r1,
                           std::size_t c0, std::size_t c1) {
  RegionOpt best;
  if (entry.kind == serve::ArrayEntry::Kind::Staircase) {
    // Padding infinities break total monotonicity, so every algorithm
    // runs the frontier scan (cf. the staircase kernels' grouping).
    staircase_piece(entry, maxima, r0, r1, c0, c1, best);
    return best;
  }
  const std::size_t nr = r1 - r0 + 1;
  const std::size_t nc = c1 - c0 + 1;
  switch (algo) {
    case plan::Algo::Brute: {
      for (std::size_t r = r0; r <= r1; ++r) {
        for (std::size_t j = c0; j <= c1; ++j) {
          combine_region(maxima, entry.data(r, j), r, j, best);
        }
      }
      return best;
    }
    case plan::Algo::Sequential: {
      dense_piece(entry, maxima, r0, r1, c0, c1, best);
      return best;
    }
    case plan::Algo::Parallel: {
      // Fixed row chunks, one SMAWK per chunk on the engine, chunk
      // results folded serially in chunk order: the combine order is a
      // total order on (value, col, row), so the chunking cannot change
      // the answer.
      const std::size_t grain = exec::grain_for(nc == 0 ? 1 : nc);
      const std::size_t nchunks = (nr + grain - 1) / grain;
      std::vector<RegionOpt> part(nchunks);
      exec::parallel_for(nchunks, 1, [&](std::size_t c) {
        const std::size_t lo = r0 + c * grain;
        const std::size_t hi = lo + grain - 1 < r1 ? lo + grain - 1 : r1;
        dense_piece(entry, maxima, lo, hi, c0, c1, part[c]);
      });
      for (const RegionOpt& p : part) {
        if (p.has) combine_region(maxima, p.value, p.row, p.col, best);
      }
      return best;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// IndexManager
// ---------------------------------------------------------------------------

IndexManager::BuildInfo IndexManager::build(
    std::uint64_t id, std::shared_ptr<const serve::ArrayEntry> entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = indexes_.find(id);
    if (it != indexes_.end()) {
      return {it->second->nodes(), it->second->leaf_rows(),
              it->second->memory_bytes()};
    }
  }
  auto idx = std::make_shared<Index>(std::move(entry));
  idx->build();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = indexes_.emplace(id, idx);
  if (inserted) {
    builds_.fetch_add(1, std::memory_order_relaxed);
  } else {
    idx = it->second;  // lost a racing build; both are equivalent
  }
  return {idx->nodes(), idx->leaf_rows(), idx->memory_bytes()};
}

bool IndexManager::drop(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = indexes_.find(id);
  if (it == indexes_.end()) return false;
  retired_lookups_.fetch_add(it->second->lookups(), std::memory_order_relaxed);
  retired_corrupt_.fetch_add(it->second->corrupt_detected(),
                             std::memory_order_relaxed);
  retired_rebuilds_.fetch_add(it->second->node_rebuilds(),
                              std::memory_order_relaxed);
  indexes_.erase(it);
  drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<Index> IndexManager::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = indexes_.find(id);
  return it == indexes_.end() ? nullptr : it->second;
}

std::size_t IndexManager::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexes_.size();
}

serve::Json IndexManager::stats_json() const {
  std::uint64_t lookups = retired_lookups_.load();
  std::uint64_t corrupt = retired_corrupt_.load();
  std::uint64_t rebuilds = retired_rebuilds_.load();
  std::uint64_t nodes = 0;
  std::uint64_t memory = 0;
  std::size_t arrays = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    arrays = indexes_.size();
    for (const auto& [id, idx] : indexes_) {
      lookups += idx->lookups();
      corrupt += idx->corrupt_detected();
      rebuilds += idx->node_rebuilds();
      nodes += idx->nodes();
      memory += idx->memory_bytes();
    }
  }
  serve::Json::Obj o;
  o["arrays"] = arrays;
  o["builds"] = builds_.load();
  o["drops"] = drops_.load();
  o["lookups"] = lookups;
  o["corrupt_detected"] = corrupt;
  o["node_rebuilds"] = rebuilds;
  o["nodes"] = nodes;
  o["memory_bytes"] = memory;
  return serve::Json(std::move(o));
}

}  // namespace pmonge::index
