// Shape-class plan memoization.
//
// Planning a query is cheap but not free (up to three cost evaluations
// and a handful of branches), and service traffic concentrates on a
// small set of operand shapes.  The planner therefore memoizes one Plan per
// *shape class*: the key quantizes each of rows/cols/batch to its
// ceil-lg bucket, so e.g. all row searches on operands in (512, 1024]
// columns share a plan.  Plans are computed at the bucket's power-of-two
// representative -- the largest shape in the class -- which keeps the
// cached choice conservative (predicted cost at the representative
// bounds every member) and makes predictions exactly reproducible and
// monotone across classes.
//
// The cache is a single mutex-guarded open map: planning sits far off
// the per-query hot path (one lookup per *group*, not per request), and
// the key space is tiny (5 op classes x ~33^3 buckets), so contention
// and growth are non-issues.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "plan/cost_model.hpp"

namespace pmonge::plan {

/// ceil(lg2(x)) for x >= 1 (0 maps to bucket 0 as well).
inline std::uint32_t lg_bucket(std::size_t x) {
  std::uint32_t b = 0;
  std::size_t r = 1;
  while (r < x) {
    r *= 2;
    ++b;
  }
  return b;
}

/// Power-of-two representative of a bucket: the largest shape in it.
inline std::size_t bucket_rep(std::uint32_t b) {
  return static_cast<std::size_t>(1) << b;
}

/// Packed shape-class key: op in the top byte, then the three lg
/// buckets (each < 64 for any std::size_t).
inline std::uint32_t shape_class_key(const QueryShape& s) {
  return (static_cast<std::uint32_t>(s.op) << 24) |
         (lg_bucket(s.rows) << 16) | (lg_bucket(s.cols) << 8) |
         lg_bucket(s.batch);
}

/// The planner's decision for one shape class.
struct Plan {
  Algo algo = Algo::Parallel;
  double predicted_us = 0;    // at the class representative shape
  QueryShape rep;             // the representative the numbers refer to
};

class PlanCache {
 public:
  /// Cached plan for shape's class, or compute via `make(rep)` and
  /// remember it.  `make` receives the class representative shape.
  template <class Make>
  Plan get_or_plan(const QueryShape& shape, Make&& make) {
    const std::uint32_t key = shape_class_key(shape);
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) {
        ++hits_;
        return it->second;
      }
      ++misses_;
    }
    QueryShape rep = shape;
    rep.rows = bucket_rep(lg_bucket(shape.rows));
    rep.cols = bucket_rep(lg_bucket(shape.cols));
    rep.batch = bucket_rep(lg_bucket(shape.batch));
    const Plan p = make(rep);
    std::lock_guard<std::mutex> lk(mu_);
    map_.emplace(key, p);  // racing computers produce the identical plan
    return p;
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t size = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {hits_, misses_, map_.size()};
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint32_t, Plan> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pmonge::plan
