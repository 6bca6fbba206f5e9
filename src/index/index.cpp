#include "index/index.hpp"

#include <chrono>
#include <utility>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "monge/smawk.hpp"
#include "obs/trace.hpp"
#include "par/monge_rowminima.hpp"

namespace pmonge::index {

namespace {

using DenseSub = monge::SubArray<monge::DenseArray<std::int64_t>>;

/// FNV-1a over a raw byte range.
std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
std::uint64_t fnv1a_vec(std::uint64_t h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
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
  std::uint64_t h = 14695981039346656037ull;
  for (const DirData& d : nd.dir) {
    h = fnv1a_vec(h, d.tree.raw_vals());
    h = fnv1a_vec(h, d.tree.raw_cols());
    h = fnv1a_vec(h, d.bp.raw_starts());
    h = fnv1a_vec(h, d.bp.raw_rows());
  }
  return h;
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

  // One task per leaf block.  Each leaf costs two linear SMAWK passes
  // over its transposed rows x w block (dense) or two scans of its
  // finite cells (staircase); the fork rule keeps a build predicted at
  // most kappa on the calling thread.
  const bool staircase = e.kind == serve::ArrayEntry::Kind::Staircase;
  std::vector<std::size_t> leaves;
  leaves.reserve(num_blocks_);
  std::uint64_t work = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].left != kNone) continue;
    leaves.push_back(i);
    const std::size_t rows = nodes_[i].row_hi - nodes_[i].row_lo;
    work += staircase ? rows * w : 2 * par::scan_work(1, rows + w);
  }
  std::vector<ColOpt> mins(nodes_.size()), maxs(nodes_.size());
  exec::parallel_tasks(leaves.size(), work, [&](std::size_t t) {
    const Node& nd = nodes_[leaves[t]];
    compute_colopt(false, nd.row_lo, nd.row_hi, mins[leaves[t]]);
    compute_colopt(true, nd.row_lo, nd.row_hi, maxs[leaves[t]]);
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

void Index::piece_opt(bool maxima, std::size_t a, std::size_t b,
                      std::size_t c0, std::size_t c1, RegionOpt& best) const {
  if (entry_->kind == serve::ArrayEntry::Kind::Staircase) {
    staircase_piece(*entry_, maxima, a, b, c0, c1, best);
  } else {
    dense_piece(*entry_, maxima, a, b, c0, c1, best);
  }
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

  // Decompose [r0, r1] into <= 2 partial leaf-edge pieces plus canonical
  // nodes over the fully-covered blocks, evaluated in ascending row
  // order so first-wins ties stay topmost.
  const std::size_t b0 = r0 / leaf_rows_;
  const std::size_t b1 = r1 / leaf_rows_;
  if (b0 == b1) {
    if (r0 == block_lo(b0) && r1 + 1 == block_hi(b0)) {
      canonical(b0, b0);
    } else {
      piece_opt(maxima, r0, r1, c0, c1, best);
    }
  } else {
    const std::size_t fb0 = r0 == block_lo(b0) ? b0 : b0 + 1;
    const std::size_t fb1 = r1 + 1 == block_hi(b1) ? b1 : b1 - 1;
    if (fb0 > b0) piece_opt(maxima, r0, block_hi(b0) - 1, c0, c1, best);
    if (fb0 <= fb1) canonical(fb0, fb1);
    if (fb1 < b1) piece_opt(maxima, block_lo(b1), r1, c0, c1, best);
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
