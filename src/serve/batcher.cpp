#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "apps/empty_rect.hpp"
#include "apps/largest_rect.hpp"
#include "apps/polygon_neighbors.hpp"
#include "apps/string_edit.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "geom/geometry.hpp"
#include "index/index.hpp"
#include "monge/staircase_seq.hpp"
#include "obs/trace.hpp"
#include "par/monge_rowminima.hpp"
#include "par/staircase_rowminima.hpp"
#include "par/tube_maxima.hpp"

namespace pmonge::serve {

using Member = detail::BatchMember;

namespace {

using monge::kNoCol;
using monge::RowOpt;

/// Close out a parallel-path kernel: fold the machine's charged PRAM
/// costs into the service totals and onto the kernel span, so exported
/// traces show predicted cost next to measured wall time.
void charge(ServiceMetrics& metrics, const pram::Machine& mach,
            obs::Span& span) {
  metrics.charged_time().add(mach.meter().time);
  metrics.charged_work().add(mach.meter().work);
  span.set_charged(mach.meter().time, mach.meter().work);
}

void set_error(BatchOutcome& out, std::string why) {
  out.ok = false;
  out.error = std::move(why);
}

void set_ok(BatchOutcome& out, const Json& result) {
  out.ok = true;
  out.result.clear();
  result.dump_to(out.result);
}

/// Mark every member that has no outcome yet with a group-level error.
void fail_unanswered(std::vector<Member>& members, const std::string& why) {
  for (Member& m : members) {
    if (!m.out->ok && m.out->error.empty()) set_error(*m.out, why);
  }
}

std::int64_t int_field_or(const Json& body, const std::string& key,
                          std::int64_t def) {
  const Json* p = body.find(key);
  return p == nullptr ? def : p->as_int();
}

/// The array id an operand field names, for group keys and lookups: an
/// unused operand slot (null key) or a missing or malformed field maps
/// to -1 here; the handler re-validates and produces the member error.
std::int64_t operand_id(const Json& body, const char* key) {
  const Json* p = key == nullptr ? nullptr : body.find(key);
  if (p == nullptr || p->type() != Json::Type::Int) return -1;
  return p->as_int();
}

/// Non-negative index field, checked against an exclusive bound.
std::size_t index_field(const Json& body, const std::string& key,
                        std::size_t bound, const char* what) {
  const std::int64_t v = body.at(key).as_int();
  if (v < 0 || static_cast<std::size_t>(v) >= bound) {
    throw JsonError(std::string("bad_request: ") + what + " out of range");
  }
  return static_cast<std::size_t>(v);
}

Json rowopt_result(const RowOpt<std::int64_t>& r) {
  Json::Obj o;
  if (r.col == kNoCol) {
    o["col"] = -1;
    o["value"] = nullptr;
  } else {
    o["col"] = static_cast<std::int64_t>(r.col);
    o["value"] = r.value;
  }
  return Json(std::move(o));
}

/// Resolve a registered array or record a per-member error.
std::shared_ptr<const ArrayEntry> resolve(Registry& reg, const Json& body,
                                          const std::string& key,
                                          BatchOutcome& out) {
  const Json* p = body.find(key);
  if (p == nullptr || p->type() != Json::Type::Int) {
    set_error(out, "bad_request: missing or non-integer field \"" + key +
                       "\"");
    return nullptr;
  }
  const std::int64_t id = p->as_int();
  std::shared_ptr<const ArrayEntry> entry =
      id < 0 ? nullptr : reg.get(static_cast<std::uint64_t>(id));
  if (entry == nullptr) {
    set_error(out, "unknown_array: " + std::to_string(id));
  }
  return entry;
}

// ---------------------------------------------------------------------------
// Group handlers.  Each answers every member (outcome or error) and never
// throws across the job boundary.
// ---------------------------------------------------------------------------

void run_row_group(std::vector<Member>& members,
                   const std::shared_ptr<const ArrayEntry>& entry, bool maxima,
                   pram::Model model, ServiceMetrics& metrics,
                   const plan::Plan& pl) {
  if (entry->kind == ArrayEntry::Kind::Staircase) {
    fail_unanswered(members, "wrong_kind: array is staircase; use "
                             "staircase_rowmin / staircase_rowmax");
    return;
  }
  std::vector<std::size_t> rows;
  std::vector<std::pair<std::size_t, Member*>> live;  // row -> member
  for (Member& m : members) {
    try {
      const std::size_t row =
          index_field(m.req->body, "row", entry->data.rows(), "row");
      rows.push_back(row);
      live.emplace_back(row, &m);
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
  if (live.empty()) return;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  // Every variant below returns the *leftmost* optimum of each queried
  // row, so the plan choice never shows in the response bytes.
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(pl.algo));
  const bool inverse = entry->kind == ArrayEntry::Kind::InverseMonge;
  const auto& a = entry->data;
  std::vector<RowOpt<std::int64_t>> res;
  if (pl.algo == plan::Algo::Brute) {
    res.reserve(rows.size());
    for (const std::size_t r : rows) {
      RowOpt<std::int64_t> best{a(r, 0), 0};
      for (std::size_t j = 1; j < a.cols(); ++j) {
        const std::int64_t v = a(r, j);
        if (maxima ? v > best.value : v < best.value) best = {v, j};
      }
      res.push_back(best);
    }
  } else if (pl.algo == plan::Algo::Sequential) {
    std::vector<RowOpt<std::int64_t>> all;
    if (!inverse && !maxima) {
      all = monge::smawk_row_minima(a);
    } else if (!inverse && maxima) {
      all = monge::smawk_row_maxima_monge(a);
    } else if (inverse && !maxima) {
      all = monge::smawk_row_minima_inverse_monge(a);
    } else {
      all = monge::smawk_row_maxima_inverse_monge(a);
    }
    res.reserve(rows.size());
    for (const std::size_t r : rows) res.push_back(all[r]);
  } else {
    pram::Machine mach(model);
    if (!inverse && !maxima) {
      res = par::monge_row_minima_rows(mach, a, rows);
    } else if (!inverse && maxima) {
      res = par::monge_row_maxima_rows(mach, a, rows);
    } else if (inverse && !maxima) {
      res = par::inverse_monge_row_minima_rows(mach, a, rows);
    } else {
      res = par::inverse_monge_row_maxima_rows(mach, a, rows);
    }
    charge(metrics, mach, kspan);
  }
  for (auto& [row, m] : live) {
    const auto it = std::lower_bound(rows.begin(), rows.end(), row);
    set_ok(*m->out, rowopt_result(res[static_cast<std::size_t>(
                        it - rows.begin())]));
  }
}

void run_staircase_group(std::vector<Member>& members,
                         const std::shared_ptr<const ArrayEntry>& entry,
                         bool maxima, pram::Model model,
                         ServiceMetrics& metrics, const plan::Plan& pl) {
  if (entry->kind != ArrayEntry::Kind::Staircase) {
    fail_unanswered(members, "wrong_kind: array is not staircase");
    return;
  }
  std::vector<std::size_t> rows;
  std::vector<std::pair<std::size_t, Member*>> live;
  for (Member& m : members) {
    try {
      const std::size_t row =
          index_field(m.req->body, "row", entry->data.rows(), "row");
      rows.push_back(row);
      live.emplace_back(row, &m);
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
  if (live.empty()) return;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(pl.algo));
  std::vector<RowOpt<std::int64_t>> res;
  if (pl.algo == plan::Algo::Brute) {
    // Leftmost optimum over each queried row's finite prefix.  The
    // frontier was validated at registration, so this reads it in place
    // instead of building (and re-checking) a StaircaseArray copy.
    res.reserve(rows.size());
    for (const std::size_t r : rows) {
      const std::size_t width = entry->frontier[r];
      RowOpt<std::int64_t> best{0, kNoCol};
      for (std::size_t j = 0; j < width; ++j) {
        const std::int64_t v = entry->data(r, j);
        if (best.col == kNoCol || (maxima ? v > best.value : v < best.value)) {
          best = {v, j};
        }
      }
      res.push_back(best);
    }
  } else if (pl.algo == plan::Algo::Sequential) {
    const monge::StaircaseArray<monge::DenseArray<std::int64_t>> s(
        entry->data, entry->frontier);
    auto all = maxima ? monge::staircase_row_maxima_seq(s)
                      : monge::staircase_row_minima_seq(s);
    res.reserve(rows.size());
    for (const std::size_t r : rows) res.push_back(all[r]);
  } else {
    const monge::StaircaseArray<monge::DenseArray<std::int64_t>> s(
        entry->data, entry->frontier);
    pram::Machine mach(model);
    res = maxima ? par::staircase_row_maxima_rows(mach, s, rows)
                 : par::staircase_row_minima_rows(mach, s, rows);
    charge(metrics, mach, kspan);
  }
  for (auto& [row, m] : live) {
    const auto it = std::lower_bound(rows.begin(), rows.end(), row);
    set_ok(*m->out, rowopt_result(res[static_cast<std::size_t>(
                        it - rows.begin())]));
  }
}

Json region_result(const index::RegionOpt& r) {
  Json::Obj o;
  if (!r.has) {
    o["value"] = nullptr;
    o["row"] = -1;
    o["col"] = -1;
  } else {
    o["value"] = r.value;
    o["row"] = static_cast<std::int64_t>(r.row);
    o["col"] = static_cast<std::int64_t>(r.col);
  }
  return Json(std::move(o));
}

/// Submatrix min/max over a registered array.  With `idx` set, every
/// member is answered through the query index; otherwise each runs the
/// direct sub-block solver under the planned algorithm.  Both paths
/// reduce candidates under the same total order (value, leftmost col,
/// topmost row), so the route never shows in the response bytes.
void run_submatrix_group(std::vector<Member>& members,
                         const std::shared_ptr<const ArrayEntry>& entry,
                         const std::shared_ptr<index::Index>& idx,
                         bool maxima, const plan::Plan& pl) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail(idx != nullptr ? "index" : plan::algo_name(pl.algo));
  for (Member& m : members) {
    try {
      const Json& b = m.req->body;
      const std::size_t r0 =
          index_field(b, "r0", entry->data.rows(), "r0");
      const std::size_t r1 =
          index_field(b, "r1", entry->data.rows(), "r1");
      const std::size_t c0 =
          index_field(b, "c0", entry->data.cols(), "c0");
      const std::size_t c1 =
          index_field(b, "c1", entry->data.cols(), "c1");
      if (r1 < r0) throw JsonError("bad_request: r1 < r0");
      if (c1 < c0) throw JsonError("bad_request: c1 < c0");
      const index::RegionOpt r =
          idx != nullptr
              ? idx->submatrix_opt(maxima, r0, r1, c0, c1)
              : index::submatrix_direct(*entry, maxima, pl.algo, r0, r1,
                                        c0, c1);
      set_ok(*m.out, region_result(r));
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
}

void run_tube_group(std::vector<Member>& members,
                    const std::shared_ptr<const ArrayEntry>& d,
                    const std::shared_ptr<const ArrayEntry>& e, bool maxima,
                    pram::Model model, ServiceMetrics& metrics,
                    const plan::Plan& pl) {
  if (d->kind != ArrayEntry::Kind::Monge ||
      e->kind != ArrayEntry::Kind::Monge) {
    fail_unanswered(members, "wrong_kind: tube operands must be monge");
    return;
  }
  if (d->data.cols() != e->data.rows()) {
    fail_unanswered(members, "bad_request: composite dimensions mismatch");
    return;
  }
  std::vector<par::TubeQuery> qs;
  std::vector<Member*> live;
  for (Member& m : members) {
    try {
      par::TubeQuery q;
      q.i = index_field(m.req->body, "i", d->data.rows(), "i");
      q.k = index_field(m.req->body, "k", e->data.cols(), "k");
      qs.push_back(q);
      live.push_back(&m);
    } catch (const JsonError& ex) {
      set_error(*m.out, ex.what());
    }
  }
  if (live.empty()) return;
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(pl.algo));
  if (pl.algo != plan::Algo::Parallel) {
    // Per-point scan over the middle index, smallest j on ties --
    // exactly the tube_*_brute convention of monge/composite.hpp.
    const std::size_t q = d->data.cols();
    for (std::size_t t = 0; t < live.size(); ++t) {
      const par::TubeQuery& tq = qs[t];
      std::int64_t best = d->data(tq.i, 0) + e->data(0, tq.k);
      std::size_t bestj = 0;
      for (std::size_t j = 1; j < q; ++j) {
        const std::int64_t v = d->data(tq.i, j) + e->data(j, tq.k);
        if (maxima ? v > best : v < best) {
          best = v;
          bestj = j;
        }
      }
      Json::Obj o;
      o["value"] = best;
      o["j"] = static_cast<std::int64_t>(bestj);
      set_ok(*live[t]->out, Json(std::move(o)));
    }
    return;
  }
  pram::Machine mach(model);
  auto res = maxima ? par::tube_maxima_points(mach, d->data, e->data, qs)
                    : par::tube_minima_points(mach, d->data, e->data, qs);
  charge(metrics, mach, kspan);
  for (std::size_t t = 0; t < live.size(); ++t) {
    Json::Obj o;
    o["value"] = res[t].value;
    o["j"] = static_cast<std::int64_t>(res[t].j);
    set_ok(*live[t]->out, Json(std::move(o)));
  }
}

/// String edit has one route, the Wagner-Fischer DP (plan/cost_model.hpp),
/// run for its cost alone in one rolling row: a request's memory grows
/// with |y|, not with |x| * |y|.
void run_edit_group(std::vector<Member>& members) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(plan::Algo::Brute));
  for (Member& m : members) {
    try {
      const Json& b = m.req->body;
      apps::EditCosts costs;
      costs.ins = int_field_or(b, "ins", 1);
      costs.del = int_field_or(b, "del", 1);
      costs.sub = int_field_or(b, "sub", 1);
      Json::Obj o;
      o["cost"] = apps::edit_distance_cost(b.at("x").as_string(),
                                           b.at("y").as_string(), costs);
      set_ok(*m.out, Json(std::move(o)));
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
}

void run_largest_rect_group(std::vector<Member>& members, pram::Model model,
                            ServiceMetrics& metrics) {
  std::vector<std::vector<apps::IPoint>> instances;
  std::vector<Member*> live;
  for (Member& m : members) {
    try {
      std::vector<apps::IPoint> pts;
      for (const Json& p : m.req->body.at("points").arr()) {
        const auto& xy = p.arr();
        if (xy.size() != 2) throw JsonError("bad_request: point is not [x,y]");
        pts.push_back({xy[0].as_int(), xy[1].as_int()});
      }
      if (pts.size() < 2) {
        throw JsonError("bad_request: need at least two points");
      }
      instances.push_back(std::move(pts));
      live.push_back(&m);
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
  if (live.empty()) return;
  obs::Span kspan("serve.kernel");
  kspan.set_detail("parallel");
  pram::Machine mach(model);
  const auto best = apps::largest_rect_par_batch(mach, instances);
  charge(metrics, mach, kspan);
  for (std::size_t t = 0; t < live.size(); ++t) {
    Json::Obj o;
    o["area"] = best[t].area;
    o["a"] = Json(Json::Arr{Json(best[t].a.x), Json(best[t].a.y)});
    o["b"] = Json(Json::Arr{Json(best[t].b.x), Json(best[t].b.y)});
    set_ok(*live[t]->out, Json(std::move(o)));
  }
}

void run_empty_rect_group(std::vector<Member>& members, pram::Model model,
                          ServiceMetrics& metrics) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail("parallel");
  pram::Machine mach(model);
  mach.parallel_branches(members.size(), [&](std::size_t t,
                                             pram::Machine& sub) {
    Member& m = members[t];
    try {
      const auto& b = m.req->body.at("bound").arr();
      if (b.size() != 4) throw JsonError("bad_request: bound is not [x1,y1,x2,y2]");
      apps::Rect bound{b[0].as_double(), b[1].as_double(), b[2].as_double(),
                       b[3].as_double()};
      std::vector<apps::DPoint> pts;
      for (const Json& p : m.req->body.at("points").arr()) {
        const auto& xy = p.arr();
        if (xy.size() != 2) throw JsonError("bad_request: point is not [x,y]");
        pts.push_back({xy[0].as_double(), xy[1].as_double()});
      }
      const apps::Rect r = apps::largest_empty_rect_par(sub, std::move(pts),
                                                        bound);
      Json::Obj o;
      o["x1"] = r.x1;
      o["y1"] = r.y1;
      o["x2"] = r.x2;
      o["y2"] = r.y2;
      o["area"] = r.area();
      set_ok(*m.out, Json(std::move(o)));
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    } catch (const fault::InjectedFault&) {
      // Transient by contract: let it reach the group retry loop instead
      // of freezing into a per-member "internal" error.
      throw;
    } catch (const std::exception& e) {
      set_error(*m.out, std::string("internal: ") + e.what());
    }
  });
  charge(metrics, mach, kspan);
}

apps::NeighborKind parse_neighbor_kind(const std::string& s) {
  if (s == "nearest_visible") return apps::NeighborKind::NearestVisible;
  if (s == "nearest_invisible") return apps::NeighborKind::NearestInvisible;
  if (s == "farthest_visible") return apps::NeighborKind::FarthestVisible;
  if (s == "farthest_invisible") return apps::NeighborKind::FarthestInvisible;
  throw JsonError("bad_request: unknown neighbor kind \"" + s + "\"");
}

void run_polygon_group(std::vector<Member>& members, pram::Model model,
                       ServiceMetrics& metrics) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail("parallel");
  pram::Machine mach(model);
  mach.parallel_branches(members.size(), [&](std::size_t t,
                                             pram::Machine& sub) {
    Member& m = members[t];
    try {
      auto parse_poly = [&](const char* key) {
        std::vector<geom::Point> v;
        for (const Json& p : m.req->body.at(key).arr()) {
          const auto& xy = p.arr();
          if (xy.size() != 2) throw JsonError("bad_request: vertex is not [x,y]");
          v.push_back({xy[0].as_double(), xy[1].as_double()});
        }
        return geom::ConvexPolygon(std::move(v));
      };
      const geom::ConvexPolygon P = parse_poly("p");
      const geom::ConvexPolygon Q = parse_poly("q");
      const auto kind = parse_neighbor_kind(m.req->body.at("kind").as_string());
      const auto res = apps::neighbors_par(sub, P, Q, kind);
      Json::Arr neighbor, distance;
      for (std::size_t i = 0; i < res.neighbor.size(); ++i) {
        if (res.neighbor[i] == apps::NeighborResult::npos) {
          neighbor.emplace_back(-1);
          distance.emplace_back(nullptr);
        } else {
          neighbor.emplace_back(static_cast<std::int64_t>(res.neighbor[i]));
          distance.emplace_back(res.distance[i]);
        }
      }
      Json::Obj o;
      o["neighbor"] = Json(std::move(neighbor));
      o["distance"] = Json(std::move(distance));
      set_ok(*m.out, Json(std::move(o)));
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    } catch (const fault::InjectedFault&) {
      throw;  // transient: belongs to the group retry loop
    } catch (const std::exception& e) {
      set_error(*m.out, std::string("internal: ") + e.what());
    }
  });
  charge(metrics, mach, kspan);
}

/// Ids of the registered arrays `req` reads -- the cache-entry tags that
/// unregister invalidates.
std::vector<std::uint64_t> result_tags(const Request& req) {
  std::vector<std::uint64_t> tags;
  for (const char* key : {"array", "d", "e"}) {
    const Json* p = req.body.find(key);
    if (p != nullptr && p->type() == Json::Type::Int && p->as_int() >= 0) {
      tags.push_back(static_cast<std::uint64_t>(p->as_int()));
    }
  }
  return tags;
}

}  // namespace

plan::QueryShape query_shape(const Request& req, Registry& reg) {
  const OpSpec& spec = op_spec(req.op);
  plan::QueryShape s{spec.op_class, 0, 0, 1};
  const Json& b = req.body;
  if (spec.operands[0] != nullptr) {
    const std::int64_t id = operand_id(b, spec.operands[0]);
    if (const auto e =
            id < 0 ? nullptr : reg.get(static_cast<std::uint64_t>(id))) {
      s.rows = e->data.rows();
      s.cols = e->data.cols();
    }
  } else if (spec.op_class == plan::OpClass::EditDistance) {
    const Json* x = b.find("x");
    const Json* y = b.find("y");
    if (x != nullptr && x->type() == Json::Type::String) {
      s.rows = x->as_string().size();
    }
    if (y != nullptr && y->type() == Json::Type::String) {
      s.cols = y->as_string().size();
    }
  } else {
    for (const char* key : {"points", "p", "q"}) {
      const Json* p = b.find(key);
      if (p != nullptr && p->type() == Json::Type::Array) {
        s.rows += p->arr().size();
      }
    }
  }
  return s;
}

plan::Plan Batcher::plan_for(const plan::QueryShape& shape,
                             bool degraded) const {
  plan::Plan pl = planner_.plan(shape);
  const std::span<const plan::Algo> routes =
      plan::op_class_info(shape.op).routes;
  if (degraded) {
    // The degradation contract: the class's sequential route if it has
    // one, else its first, under a SerialScope never touches the pool,
    // and returns the same leftmost-optimum bytes as every other route.
    pl.algo = std::find(routes.begin(), routes.end(),
                        plan::Algo::Sequential) != routes.end()
                  ? plan::Algo::Sequential
                  : routes.front();
    return pl;
  }
  if (fault::armed() && fault::should_fire(fault::Site::PlanCorruptPlan)) {
    // Rotate to the class's next route.  Byte-identity across routes is
    // exactly the invariant the chaos harness checks, so a "corrupted"
    // plan may cost time but can never change a response.
    const std::size_t i = static_cast<std::size_t>(
        std::find(routes.begin(), routes.end(), pl.algo) - routes.begin());
    pl.algo = routes[(i + 1) % routes.size()];
  }
  return pl;
}

bool Batcher::breaker_open() const {
  return breaker_budget_.load(std::memory_order_relaxed) > 0;
}

void Batcher::note_failure() {
  const std::uint64_t n =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= std::max<std::size_t>(1, res_.breaker_threshold) &&
      res_.breaker_cooldown > 0 && !breaker_open()) {
    breaker_budget_.store(static_cast<std::int64_t>(res_.breaker_cooldown),
                          std::memory_order_relaxed);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    consecutive_failures_.store(0, std::memory_order_relaxed);
  }
}

void Batcher::note_group_done(bool degraded) {
  if (!degraded) return;
  degraded_groups_.fetch_add(1, std::memory_order_relaxed);
  breaker_budget_.fetch_sub(1, std::memory_order_relaxed);
}

void Batcher::dispatch_group(std::vector<Member>& ms) {
  // Retry budget: the tightest member deadline, further tightened by the
  // optional per-op timeout.  Attempts never sleep past it.
  ServeClock::time_point deadline = kNoDeadline;
  for (const Member& m : ms) deadline = std::min(deadline, m.deadline);
  if (res_.op_timeout_ms >= 0) {
    deadline = std::min(
        deadline,
        ServeClock::now() + std::chrono::milliseconds(res_.op_timeout_ms));
  }
  for (std::size_t attempt = 1;; ++attempt) {
    const bool degraded = breaker_open();
    try {
      // The group-fault site models the *parallel* plan failing; the
      // degraded path is the sequential fallback, so it is exempt --
      // which is also what makes breaker recovery deterministic under a
      // 100% injection rate (tests/test_chaos.cpp).
      if (!degraded && fault::armed() &&
          fault::should_fire(fault::Site::ServeGroupFault)) {
        throw fault::InjectedFault(fault::Site::ServeGroupFault);
      }
      dispatch_group_once(ms, degraded);
      note_group_done(degraded);
      if (degraded) {
        for (const Member& m : ms) {
          metrics_.endpoint(m.req->op).degraded.add();
        }
      }
      if (attempt == 1) {
        // A clean first-attempt success closes the failure streak.
        consecutive_failures_.store(0, std::memory_order_relaxed);
      }
      return;
    } catch (const fault::InjectedFault& f) {
      note_failure();
      auto backoff = std::chrono::microseconds(
          200ull << std::min<std::size_t>(attempt - 1, 10));
      if (backoff > std::chrono::microseconds(5000)) {
        backoff = std::chrono::microseconds(5000);
      }
      const auto now = ServeClock::now();
      if (attempt > res_.max_retries ||
          (deadline != kNoDeadline && now + backoff >= deadline)) {
        // Out of budget: one coherent group-level error (partial
        // outcomes from the failed attempt are discarded first).
        for (Member& m : ms) *m.out = BatchOutcome{};
        fail_unanswered(ms, std::string("fault_injected: ") +
                                fault::site_name(f.site) + " after " +
                                std::to_string(attempt) + " attempt(s)");
        fault_errors_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      for (const Member& m : ms) {
        metrics_.endpoint(m.req->op).retried.add();
      }
      {
        obs::TraceContext tctx(ms.front().req->trace_id);
        obs::Span rspan("serve.retry");
        rspan.set_detail(fault::site_name(f.site));
        rspan.set_arg("attempt", attempt);
        std::this_thread::sleep_for(backoff);
      }
      // Kernels are deterministic: recomputation reproduces the exact
      // bytes, so resetting partial outcomes cannot change a response.
      for (Member& m : ms) *m.out = BatchOutcome{};
    }
  }
}

std::shared_ptr<index::Index> Batcher::index_for(
    const Request& req, const plan::QueryShape& shape,
    const plan::Plan& direct) const {
  // Route through the index only when one exists for the operand and the
  // planner predicts the O(lg m) lookups beat `direct`, the group's plan
  // (docs/indexing.md).
  const std::int64_t id = operand_id(req.body, op_spec(req.op).operands[0]);
  auto idx = id < 0 ? nullptr : indexes_.get(static_cast<std::uint64_t>(id));
  return idx != nullptr && planner_.prefer_index(shape, direct) ? idx
                                                                : nullptr;
}

void Batcher::dispatch_group_once(std::vector<Member>& ms, bool degraded) {
  const Request& front = *ms.front().req;
  const OpSpec& spec = op_spec(front.op);
  // Group-level spans (and the plan/kernel spans they enclose) carry a
  // representative trace id: the first member's.  Per-request intervals
  // are separately visible as serve.request spans.
  obs::TraceContext tctx(front.trace_id);
  obs::Span span("serve.group");
  span.set_detail(spec.name);
  span.set_arg("members", ms.size());
  // Degraded execution stays off the pool entirely (see thread_pool.cpp:
  // serial scopes never enter the pooled chunk loop, where the exec
  // fault sites live), so a breaker-opened batcher genuinely dodges the
  // injections that opened it.
  std::optional<exec::SerialScope> serial;
  if (degraded) serial.emplace();
  try {
    // The group key fixed the registered operands; resolve them once.
    std::array<std::shared_ptr<const ArrayEntry>, 2> arrays;
    for (std::size_t k = 0; k < 2 && spec.operands[k] != nullptr; ++k) {
      arrays[k] = resolve(registry_, front.body, spec.operands[k],
                          *ms.front().out);
      if (arrays[k] == nullptr) {
        fail_unanswered(ms, ms.front().out->error);
        return;
      }
    }
    // The group's shape: its operand's, or the largest member's inline
    // operands.
    plan::QueryShape shape{spec.op_class, 0, 0, ms.size()};
    if (arrays[0] != nullptr) {
      shape.rows = arrays[0]->data.rows();
      shape.cols = arrays[0]->data.cols();
    } else {
      for (const Member& m : ms) {
        const plan::QueryShape one = query_shape(*m.req, registry_);
        shape.rows = std::max(shape.rows, one.rows);
        shape.cols = std::max(shape.cols, one.cols);
      }
    }
    const plan::Plan pl = plan_for(shape, degraded);
    metrics_.plans(pl.algo).add();
    switch (front.op) {
      case Op::RowMin:
      case Op::RowMax:
        run_row_group(ms, arrays[0], spec.maxima, model_, metrics_, pl);
        break;
      case Op::StaircaseRowMin:
      case Op::StaircaseRowMax:
        run_staircase_group(ms, arrays[0], spec.maxima, model_, metrics_, pl);
        break;
      case Op::SubmatrixMin:
      case Op::SubmatrixMax:
        // The degraded path (breaker open) stays on the direct sequential
        // solver -- same bytes either way, so the route is free to vary.
        run_submatrix_group(ms, arrays[0],
                            degraded ? nullptr : index_for(front, shape, pl),
                            spec.maxima, pl);
        break;
      case Op::TubeMax:
      case Op::TubeMin:
        run_tube_group(ms, arrays[0], arrays[1], spec.maxima, model_,
                       metrics_, pl);
        break;
      case Op::StringEdit:
        run_edit_group(ms);
        break;
      case Op::LargestRect:
        run_largest_rect_group(ms, model_, metrics_);
        break;
      case Op::EmptyRect:
        run_empty_rect_group(ms, model_, metrics_);
        break;
      case Op::PolygonNeighbors:
        run_polygon_group(ms, model_, metrics_);
        break;
      default:  // run() answers explain; control ops never reach it
        fail_unanswered(ms, "internal: not a batched query op");
    }
  } catch (const fault::InjectedFault&) {
    throw;  // transient by contract: dispatch_group's retry loop owns it
  } catch (const std::exception& e) {
    fail_unanswered(ms, std::string("internal: ") + e.what());
  }
}

void Batcher::run_explain(const Request& req, BatchOutcome& out) {
  const Json* q = req.body.find("query");
  if (q == nullptr || q->type() != Json::Type::Object) {
    set_error(out, "bad_request: explain requires an object field \"query\"");
    return;
  }
  Request inner;
  try {
    inner = parse_request(q->dump());
  } catch (const JsonError& e) {
    set_error(out, e.what());
    return;
  }
  if (!op_spec(inner.op).query || inner.op == Op::Explain) {
    set_error(out,
              "bad_request: explain \"query\" must be a query op other than "
              "explain");
    return;
  }

  const plan::QueryShape shape = query_shape(inner, registry_);
  const plan::Plan pl = planner_.plan(shape);

  // One uncached run of the inner query, timed.  explain is
  // observability: neither this run nor its timing touches the result
  // cache, and the inner bytes it reports are the same bytes the plain
  // query produces.
  BatchOutcome sub;
  std::vector<Member> ms{Member{&inner, &sub}};
  const auto t0 = std::chrono::steady_clock::now();
  dispatch_group(ms);
  const auto t1 = std::chrono::steady_clock::now();
  const double actual_us =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t1 - t0)
                              .count()) /
      1000.0;

  Json::Obj shape_o;
  shape_o["op_class"] = plan::op_class_info(shape.op).name;
  shape_o["rows"] = static_cast<std::int64_t>(shape.rows);
  shape_o["cols"] = static_cast<std::int64_t>(shape.cols);
  shape_o["batch"] = static_cast<std::int64_t>(shape.batch);
  Json::Obj plan_o;
  plan_o["algo"] = plan::algo_name(pl.algo);
  // The engine's chunk size for unit-cost loops under the fork rule; the
  // brute and sequential variants never reach the pool.
  plan_o["grain"] = static_cast<std::int64_t>(
      pl.algo == plan::Algo::Parallel ? exec::grain_for(1) : 0);
  plan_o["predicted_us"] = pl.predicted_us;
  plan_o["profile"] = planner_.profile().id;
  plan_o["planner_enabled"] = planner_.enabled();
  if (shape.op == plan::OpClass::SubmatrixSearch) {
    // Whether the non-degraded dispatch would route through the index,
    // and then the index price prefer_index weighed against
    // predicted_us: actual_us times the index route.
    const bool use_index = index_for(inner, shape, pl) != nullptr;
    plan_o["use_index"] = use_index;
    if (use_index) {
      plan_o["index_predicted_us"] =
          plan::index_lookup_ns(planner_.profile(), shape) / 1000.0;
    }
  }
  plan_o["shape"] = Json(std::move(shape_o));
  Json::Obj outcome_o;
  outcome_o["ok"] = sub.ok;
  if (sub.ok) {
    outcome_o["result"] = Json::parse(sub.result);
  } else {
    outcome_o["error"] = sub.error;
  }
  Json::Obj o;
  o["plan"] = Json(std::move(plan_o));
  o["actual_us"] = actual_us;
  o["outcome"] = Json(std::move(outcome_o));
  set_ok(out, Json(std::move(o)));
}

ResilienceSnapshot Batcher::resilience() const {
  ResilienceSnapshot s;
  s.retries = retries_.load(std::memory_order_relaxed);
  s.batch_retries = batch_retries_.load(std::memory_order_relaxed);
  s.degraded_groups = degraded_groups_.load(std::memory_order_relaxed);
  s.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  s.fault_errors = fault_errors_.load(std::memory_order_relaxed);
  s.breaker_open = breaker_budget_.load(std::memory_order_relaxed) > 0;
  return s;
}

std::vector<BatchOutcome> Batcher::run(
    std::span<const Request> reqs,
    std::span<const ServeClock::time_point> deadlines) {
  std::vector<BatchOutcome> out(reqs.size());

  // Cache pass: answered hits never reach a group.  explain requests
  // bypass the cache entirely (their payload embeds a measured time).
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].op == Op::Explain) {
      run_explain(reqs[i], out[i]);
      continue;
    }
    if (cache_.enabled()) {
      if (auto hit = cache_.get(reqs[i].signature)) {
        out[i].ok = true;
        out[i].result = std::move(*hit);
        metrics_.endpoint(reqs[i].op).cache_hits.add();
        continue;
      }
      metrics_.endpoint(reqs[i].op).cache_misses.add();
    }
    misses.push_back(i);
  }

  // Group the misses.  The key -- op, operand ids, and with coalescing off
  // the request's own index -- fixes everything a handler dispatches on;
  // with coalescing off every request is its own group (same code path,
  // so responses cannot depend on the toggle).
  using GroupKey = std::tuple<Op, std::int64_t, std::int64_t, std::size_t>;
  std::map<GroupKey, std::vector<Member>> groups;
  for (const std::size_t i : misses) {
    const Request& r = reqs[i];
    const OpSpec& spec = op_spec(r.op);
    const GroupKey key{r.op, operand_id(r.body, spec.operands[0]),
                       operand_id(r.body, spec.operands[1]),
                       coalesce_ ? 0 : i};
    groups[key].push_back(
        Member{&reqs[i], &out[i],
               deadlines.empty() ? kNoDeadline : deadlines[i]});
  }

  // One engine submission for the whole batch; dispatch_group never
  // throws.  The submission itself is pooled, though, so an exec fault
  // site can fire on a jobs chunk *before* its group ran -- in which
  // case that group is completely untouched (a group is all-answered or
  // untouched, never partial).  Resubmit the untouched groups, bounded
  // by max_retries.
  std::vector<std::vector<Member>*> pending;
  pending.reserve(groups.size());
  for (auto& [key, members_ref] : groups) pending.push_back(&members_ref);
  for (std::size_t attempt = 0; !pending.empty(); ++attempt) {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(pending.size());
    for (std::vector<Member>* members : pending) {
      jobs.push_back([this, members] { dispatch_group(*members); });
    }
    try {
      exec::parallel_jobs(jobs);
      break;
    } catch (const fault::InjectedFault& f) {
      std::vector<std::vector<Member>*> untouched;
      for (std::vector<Member>* members : pending) {
        const bool unanswered =
            std::any_of(members->begin(), members->end(), [](const Member& m) {
              return !m.out->ok && m.out->error.empty();
            });
        if (unanswered) untouched.push_back(members);
      }
      pending = std::move(untouched);
      if (pending.empty()) break;
      if (attempt >= res_.max_retries) {
        for (std::vector<Member>* members : pending) {
          fail_unanswered(*members, std::string("fault_injected: ") +
                                        fault::site_name(f.site) +
                                        " at batch dispatch");
          fault_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      batch_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Memoize fresh successes under their signatures, tagged with the
  // array ids they read so unregister can invalidate them.
  if (cache_.enabled()) {
    for (const std::size_t i : misses) {
      if (out[i].ok) {
        cache_.put_tagged(reqs[i].signature, out[i].result,
                          result_tags(reqs[i]));
      }
    }
  }
  return out;
}

}  // namespace pmonge::serve
