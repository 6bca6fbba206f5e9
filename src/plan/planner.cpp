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
  span.set_detail(op_class_name(shape.op));
  if (!enabled_) {
    // Fixed dispatch: the pre-planner behavior, still priced so the
    // explain op and admission control stay meaningful.
    Plan p;
    p.algo = Algo::Parallel;
    p.rep = shape;
    p.predicted_us =
        predicted_ns(profile_, Algo::Parallel, shape, threads_) / 1000.0;
    span.set_arg("predicted_us",
                 static_cast<std::uint64_t>(std::llround(
                     p.predicted_us < 0 ? 0.0 : p.predicted_us)));
    return p;
  }
  Plan p = cache_->get_or_plan(
      shape, [this](const QueryShape& rep) { return plan_at(rep); });
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
  Plan p;
  p.rep = rep;

  if (rep.op == OpClass::GeometricApp) {
    // Only the parallel pipeline is wired for the geometric apps.
    p.algo = Algo::Parallel;
  } else {
    const double brute = predicted_ns(profile_, Algo::Brute, rep, threads_);
    const double seq = predicted_ns(profile_, Algo::Sequential, rep, threads_);
    const double par = predicted_ns(profile_, Algo::Parallel, rep, threads_);
    // Ties break toward the simpler variant: brute beats sequential
    // beats parallel at equal predicted cost.  The order of comparison
    // is fixed so the plan is a deterministic function of (profile,
    // shape class, threads).
    p.algo = Algo::Brute;
    double best = brute;
    if (seq < best) {
      p.algo = Algo::Sequential;
      best = seq;
    }
    if (par < best) {
      p.algo = Algo::Parallel;
      best = par;
    }
  }

  p.predicted_us = predicted_ns(profile_, p.algo, rep, threads_) / 1000.0;
  return p;
}

}  // namespace pmonge::plan
