// The execution planner: per-query algorithm selection.
//
// Given what a query touches (a QueryShape), the Planner evaluates the
// cost model for each route its op class lists (kOpClasses in
// cost_model.hpp) at exactly that shape and returns the cheapest as a
// Plan {algo, predicted cost}.  The serve batcher executes the group with
// the plan's algorithm (all routes produce the same leftmost-optimum
// bytes); Service::submit uses predicted_us to reject requests whose
// deadline is unmeetable before they enter the engine, and to price the
// inline rule's grant.  How a parallel plan splits across the host pool
// is not the planner's call: the exec engine's fork rule decides that per
// fork, from the kernel's own work prediction.
//
// A plan is a pure function of (profile, shape, lanes): a few cost
// formulas, no lock and no shared state, so every front-end thread and
// the worker price their own queries.
//
// A disabled planner (--no-plan) always answers the class's last route
// -- the paper's parallel kernel for the searches and geometric apps,
// the DP for string edit -- which is what the bit-identity tests compare
// against.
#pragma once

#include <cstddef>

#include "plan/cost_model.hpp"

namespace pmonge::plan {

/// The planner's decision for one shape.
struct Plan {
  Algo algo = Algo::Parallel;
  double predicted_us = 0;  // at the shape it was planned for
};

class Planner {
 public:
  /// threads = execution lanes the parallel route may assume
  /// (exec::num_threads() of the serving process).
  Planner(CostProfile profile, bool enabled, std::size_t threads);

  /// The chosen plan for `shape`, priced at exactly that shape.
  Plan plan(const QueryShape& shape) const;

  /// Predicted wall microseconds for running `shape` its chosen way --
  /// the admission-control number.
  double predicted_us(const QueryShape& shape) const {
    return plan(shape).predicted_us;
  }

  /// For a submatrix group with a built index available: should the
  /// lookup go through the index rather than a direct solve?  `operand`
  /// is the indexed operand's whole shape (batch = the group's): the
  /// nodes a lookup visits depend on the tree, not on the region, and the
  /// direct solve is weighed at the same shape, since the sequential
  /// price of a small region reads several times below what it measures
  /// (ROADMAP item 6).  Disabled planner -> always true (fixed dispatch
  /// uses an index whenever one exists).  Enabled -> compare
  /// index_lookup_ns against plan(operand)'s price.  Either way the
  /// answer never changes the response bytes, only the route.
  bool prefer_index(const QueryShape& operand) const;

  bool enabled() const { return enabled_; }
  const CostProfile& profile() const { return profile_; }
  std::size_t threads() const { return threads_; }

 private:
  CostProfile profile_;
  bool enabled_;
  std::size_t threads_;
};

}  // namespace pmonge::plan
