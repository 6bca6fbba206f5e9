#include "plan/planner.hpp"

#include <cmath>

#include "obs/trace.hpp"

namespace pmonge::plan {

Planner::Planner(CostProfile profile, bool enabled, std::size_t threads)
    : profile_(std::move(profile)),
      enabled_(enabled),
      threads_(threads == 0 ? 1 : threads),
      cache_(std::make_unique<PlanCache>()) {}

Plan Planner::plan(const QueryShape& shape) const {
  obs::Span span("plan.select");
  span.set_detail(op_class_info(shape.op).name);
  Plan p;
  if (enabled_) {
    p = cache_->get_or_plan(
        shape, [this](const QueryShape& rep) { return plan_at(rep); });
  } else {
    // Fixed dispatch: the class's last route, still priced so the
    // explain op and admission control stay meaningful.
    p.algo = op_class_info(shape.op).routes.back();
    p.rep = shape;
    p.predicted_us = predicted_ns(profile_, p.algo, shape, threads_) / 1000.0;
  }
  span.set_arg("predicted_us",
               static_cast<std::uint64_t>(
                   std::llround(p.predicted_us < 0 ? 0.0 : p.predicted_us)));
  return p;
}

bool Planner::prefer_index(const QueryShape& shape) const {
  if (!enabled_) return true;
  return index_lookup_ns(profile_, shape) < plan(shape).predicted_us * 1000.0;
}

Plan Planner::plan_at(const QueryShape& rep) const {
  // The cheapest of the class's routes.  They are listed simplest first
  // and only a strictly cheaper one replaces the incumbent, so ties break
  // toward the simpler route and the plan is a deterministic function of
  // (profile, shape class, threads).
  const std::span<const Algo> routes = op_class_info(rep.op).routes;
  Plan p;
  p.rep = rep;
  p.algo = routes.front();
  double best = predicted_ns(profile_, p.algo, rep, threads_);
  for (const Algo a : routes.subspan(1)) {
    const double ns = predicted_ns(profile_, a, rep, threads_);
    if (ns < best) {
      p.algo = a;
      best = ns;
    }
  }
  p.predicted_us = best / 1000.0;
  return p;
}

}  // namespace pmonge::plan
