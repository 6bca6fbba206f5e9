#include "plan/planner.hpp"

#include <cmath>

#include "obs/trace.hpp"

namespace pmonge::plan {

Planner::Planner(CostProfile profile, bool enabled, std::size_t threads)
    : profile_(std::move(profile)),
      enabled_(enabled),
      threads_(threads == 0 ? 1 : threads) {}

Plan Planner::plan(const QueryShape& shape) const {
  obs::Span span("plan.select");
  span.set_detail(op_class_info(shape.op).name);
  // The cheapest of the class's routes, or under fixed dispatch its last
  // one, still priced so the explain op and admission control stay
  // meaningful.  Routes are listed simplest first and only a strictly
  // cheaper one replaces the incumbent, so ties break toward the simpler
  // route.
  std::span<const Algo> routes = op_class_info(shape.op).routes;
  if (!enabled_) routes = routes.last(1);
  Plan p;
  p.algo = routes.front();
  double best = predicted_ns(profile_, p.algo, shape, threads_);
  for (const Algo a : routes.subspan(1)) {
    const double ns = predicted_ns(profile_, a, shape, threads_);
    if (ns < best) {
      p.algo = a;
      best = ns;
    }
  }
  p.predicted_us = best / 1000.0;
  span.set_arg("predicted_us",
               static_cast<std::uint64_t>(
                   std::llround(p.predicted_us < 0 ? 0.0 : p.predicted_us)));
  return p;
}

bool Planner::prefer_index(const QueryShape& operand) const {
  if (!enabled_) return true;
  return index_lookup_ns(profile_, operand) <
         plan(operand).predicted_us * 1000.0;
}

}  // namespace pmonge::plan
