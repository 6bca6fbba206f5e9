#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
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
#include "support/fmt.hpp"

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
void fail_unanswered(std::span<Member> members, const std::string& why) {
  for (Member& m : members) {
    if (!m.out->ok && m.out->error.empty()) set_error(*m.out, why);
  }
}

std::int64_t int_field_or(const Request& req, const char* key,
                          std::int64_t def) {
  const Field f = req.find(key);
  return f.present() ? f.as_int() : def;
}

/// The array id an operand field names, for group keys and lookups: an
/// unused operand slot (null key) or a missing or malformed field maps
/// to -1 here; the handler re-validates and produces the member error.
std::int64_t operand_id(const Request& req, const char* key) {
  const Field f = key == nullptr ? Field() : req.find(key);
  return f.is_int() ? f.as_int() : -1;
}

/// Non-negative index field, checked against an exclusive bound.
std::size_t index_field(const Request& req, const char* key,
                        std::size_t bound) {
  const std::int64_t v = req.at(key).as_int();
  if (v < 0 || static_cast<std::size_t>(v) >= bound) {
    throw JsonError(std::string("bad_request: ") + key + " out of range");
  }
  return static_cast<std::size_t>(v);
}

// Result writers: the bytes Json::dump gives for the same object (keys
// in sorted order), appended straight into the outcome.

void set_row_result(BatchOutcome& out, const RowOpt<std::int64_t>& r) {
  out.ok = true;
  std::string& s = out.result;
  s.clear();
  if (r.col == kNoCol) {
    s += "{\"col\":-1,\"value\":null}";
    return;
  }
  s += "{\"col\":";
  support::append_int(s, static_cast<std::int64_t>(r.col));
  s += ",\"value\":";
  support::append_int(s, r.value);
  s.push_back('}');
}

void set_region_result(BatchOutcome& out, const index::RegionOpt& r) {
  out.ok = true;
  std::string& s = out.result;
  s.clear();
  if (!r.has) {
    s += "{\"col\":-1,\"row\":-1,\"value\":null}";
    return;
  }
  s += "{\"col\":";
  support::append_int(s, static_cast<std::int64_t>(r.col));
  s += ",\"row\":";
  support::append_int(s, static_cast<std::int64_t>(r.row));
  s += ",\"value\":";
  support::append_int(s, r.value);
  s.push_back('}');
}

void set_tube_result(BatchOutcome& out, std::int64_t value, std::size_t j) {
  out.ok = true;
  std::string& s = out.result;
  s.clear();
  s += "{\"j\":";
  support::append_int(s, static_cast<std::int64_t>(j));
  s += ",\"value\":";
  support::append_int(s, value);
  s.push_back('}');
}

/// Resolve a registered array or record a per-member error.
std::shared_ptr<const ArrayEntry> resolve(const Registry& reg,
                                          const Request& req, const char* key,
                                          BatchOutcome& out) {
  const Field f = req.find(key);
  if (!f.is_int()) {
    set_error(out, std::string("bad_request: missing or non-integer field \"") +
                       key + "\"");
    return nullptr;
  }
  const std::int64_t id = f.as_int();
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

void run_row_group(std::span<Member> members,
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
      const std::size_t row = index_field(*m.req, "row", entry->data.rows());
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
    set_row_result(*m->out, res[static_cast<std::size_t>(it - rows.begin())]);
  }
}

void run_staircase_group(std::span<Member> members,
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
      const std::size_t row = index_field(*m.req, "row", entry->data.rows());
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
    set_row_result(*m->out, res[static_cast<std::size_t>(it - rows.begin())]);
  }
}

/// Submatrix min/max over a registered array.  With `idx` set, every
/// member is answered through the query index; otherwise each runs the
/// direct sub-block solver under the planned algorithm.  Both paths
/// reduce candidates under the same total order (value, leftmost col,
/// topmost row), so the route never shows in the response bytes.
void run_submatrix_group(std::span<Member> members,
                         const std::shared_ptr<const ArrayEntry>& entry,
                         const std::shared_ptr<index::Index>& idx,
                         bool maxima, const plan::Plan& pl) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail(idx != nullptr ? "index" : plan::algo_name(pl.algo));
  for (Member& m : members) {
    try {
      const Request& q = *m.req;
      const std::size_t r0 = index_field(q, "r0", entry->data.rows());
      const std::size_t r1 = index_field(q, "r1", entry->data.rows());
      const std::size_t c0 = index_field(q, "c0", entry->data.cols());
      const std::size_t c1 = index_field(q, "c1", entry->data.cols());
      if (r1 < r0) throw JsonError("bad_request: r1 < r0");
      if (c1 < c0) throw JsonError("bad_request: c1 < c0");
      const index::RegionOpt r =
          idx != nullptr
              ? idx->submatrix_opt(maxima, r0, r1, c0, c1)
              : index::submatrix_direct(*entry, maxima, pl.algo, r0, r1,
                                        c0, c1);
      set_region_result(*m.out, r);
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
}

void run_tube_group(std::span<Member> members,
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
      q.i = index_field(*m.req, "i", d->data.rows());
      q.k = index_field(*m.req, "k", e->data.cols());
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
      set_tube_result(*live[t]->out, best, bestj);
    }
    return;
  }
  pram::Machine mach(model);
  auto res = maxima ? par::tube_maxima_points(mach, d->data, e->data, qs)
                    : par::tube_minima_points(mach, d->data, e->data, qs);
  charge(metrics, mach, kspan);
  for (std::size_t t = 0; t < live.size(); ++t) {
    set_tube_result(*live[t]->out, res[t].value, res[t].j);
  }
}

/// String edit has one route, the Wagner-Fischer DP (plan/cost_model.hpp),
/// run for its cost alone in one rolling row: a request's memory grows
/// with |y|, not with |x| * |y|.
void run_edit_group(std::span<Member> members) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(plan::Algo::Brute));
  std::string x, y, scratch;
  for (Member& m : members) {
    try {
      const Request& q = *m.req;
      apps::EditCosts costs;
      costs.ins = int_field_or(q, "ins", 1);
      costs.del = int_field_or(q, "del", 1);
      costs.sub = int_field_or(q, "sub", 1);
      // y before x: a request missing or mistyping both answers y's error.
      y.assign(q.at("y").as_string(scratch));
      x.assign(q.at("x").as_string(scratch));
      std::string& s = m.out->result;
      s.clear();
      s += "{\"cost\":";
      support::append_int(s, apps::edit_distance_cost(x, y, costs));
      s.push_back('}');
      m.out->ok = true;
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
}

void run_largest_rect_group(std::span<Member> members, pram::Model model,
                            ServiceMetrics& metrics) {
  std::vector<std::vector<apps::IPoint>> instances;
  std::vector<Member*> live;
  for (Member& m : members) {
    try {
      std::vector<apps::IPoint> pts;
      const Json points = m.req->at("points").parse();
      for (const Json& p : points.arr()) {
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

void run_empty_rect_group(std::span<Member> members, pram::Model model,
                          ServiceMetrics& metrics) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail("parallel");
  pram::Machine mach(model);
  mach.parallel_branches(members.size(), [&](std::size_t t,
                                             pram::Machine& sub) {
    Member& m = members[t];
    try {
      const Json bound_json = m.req->at("bound").parse();
      const auto& b = bound_json.arr();
      if (b.size() != 4) throw JsonError("bad_request: bound is not [x1,y1,x2,y2]");
      apps::Rect bound{b[0].as_double(), b[1].as_double(), b[2].as_double(),
                       b[3].as_double()};
      std::vector<apps::DPoint> pts;
      const Json points = m.req->at("points").parse();
      for (const Json& p : points.arr()) {
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

void run_polygon_group(std::span<Member> members, pram::Model model,
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
        const Json vertices = m.req->at(key).parse();
        for (const Json& p : vertices.arr()) {
          const auto& xy = p.arr();
          if (xy.size() != 2) throw JsonError("bad_request: vertex is not [x,y]");
          v.push_back({xy[0].as_double(), xy[1].as_double()});
        }
        return geom::ConvexPolygon(std::move(v));
      };
      const geom::ConvexPolygon P = parse_poly("p");
      const geom::ConvexPolygon Q = parse_poly("q");
      std::string scratch;
      const auto kind =
          parse_neighbor_kind(std::string(m.req->at("kind").as_string(scratch)));
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
CacheTags result_tags(const Request& req) {
  CacheTags tags;
  for (const char* key : {"array", "d", "e"}) {
    const Field f = req.find(key);
    if (f.is_int() && f.as_int() >= 0) {
      tags.add(static_cast<std::uint64_t>(f.as_int()));
    }
  }
  return tags;
}

/// A submatrix query's region into `s`, when its fields are integers
/// naming a non-empty region of `e`.
bool region_shape(const Request& req, const ArrayEntry& e,
                  plan::QueryShape& s) {
  std::int64_t v[4];
  const char* const keys[4] = {"r0", "r1", "c0", "c1"};
  for (int i = 0; i < 4; ++i) {
    const Field f = req.find(keys[i]);
    if (!f.is_int()) return false;
    v[i] = f.as_int();
  }
  const auto rows = static_cast<std::int64_t>(e.data.rows());
  const auto cols = static_cast<std::int64_t>(e.data.cols());
  if (v[0] < 0 || v[1] < v[0] || v[1] >= rows || v[2] < 0 || v[3] < v[2] ||
      v[3] >= cols) {
    return false;
  }
  s.rows = static_cast<std::size_t>(v[1] - v[0] + 1);
  s.cols = static_cast<std::size_t>(v[3] - v[2] + 1);
  return true;
}

/// The shape an index lookup is priced at: the operand's, whatever the
/// region, since the nodes a lookup visits depend on the tree.
plan::QueryShape index_shape(const ArrayEntry& operand, std::size_t batch) {
  return {plan::OpClass::SubmatrixSearch, operand.data.rows(),
          operand.data.cols(), batch};
}

}  // namespace

Operands resolve_operands(const Request& req, const Registry& reg) {
  Operands ops;
  const OpSpec& spec = op_spec(req.op);
  for (std::size_t k = 0; k < ops.size() && spec.operands[k] != nullptr; ++k) {
    const std::int64_t id = operand_id(req, spec.operands[k]);
    if (id >= 0) ops[k] = reg.get(static_cast<std::uint64_t>(id));
  }
  return ops;
}

plan::QueryShape query_shape(const Request& req, const ArrayEntry* operand) {
  const OpSpec& spec = op_spec(req.op);
  plan::QueryShape s{spec.op_class, 0, 0, 1};
  if (spec.operands[0] != nullptr) {
    if (operand == nullptr) return s;
    if (spec.op_class != plan::OpClass::SubmatrixSearch ||
        !region_shape(req, *operand, s)) {
      s.rows = operand->data.rows();
      s.cols = operand->data.cols();
    }
  } else if (spec.op_class == plan::OpClass::EditDistance) {
    std::string scratch;
    const Field x = req.find("x");
    const Field y = req.find("y");
    if (x.raw().starts_with('"')) s.rows = x.as_string(scratch).size();
    if (y.raw().starts_with('"')) s.cols = y.as_string(scratch).size();
  } else {
    for (const char* key : {"points", "p", "q"}) {
      const Field f = req.find(key);
      if (f.raw().starts_with('[')) s.rows += f.array_size();
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

void Batcher::dispatch_group(std::span<Member> ms) {
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

std::shared_ptr<index::Index> Batcher::index_for(const Request& req,
                                                 const ArrayEntry& operand,
                                                 std::size_t batch) const {
  // Route through the index only when one exists for the operand and the
  // planner predicts its O(lg m) lookups beat a direct solve of the
  // whole operand (docs/indexing.md).
  const std::int64_t id = operand_id(req, op_spec(req.op).operands[0]);
  auto idx = id < 0 ? nullptr : indexes_.get(static_cast<std::uint64_t>(id));
  return idx != nullptr && planner_.prefer_index(index_shape(operand, batch))
             ? idx
             : nullptr;
}

void Batcher::dispatch_group_once(std::span<Member> ms, bool degraded) {
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
    // The group key fixed the registered operands; resolve them once (an
    // inline request brings them resolved from admission).
    Operands arrays;
    if (ms.front().operands != nullptr) arrays = *ms.front().operands;
    for (std::size_t k = 0; k < 2 && spec.operands[k] != nullptr; ++k) {
      if (arrays[k] == nullptr) {
        arrays[k] =
            resolve(registry_, front, spec.operands[k], *ms.front().out);
      }
      if (arrays[k] == nullptr) {
        fail_unanswered(ms, ms.front().out->error);
        return;
      }
    }
    // The group's shape: its largest member's (a submatrix query's
    // region, another op's operand or inline operands), batch = members.
    plan::QueryShape shape{spec.op_class, 0, 0, ms.size()};
    for (const Member& m : ms) {
      const plan::QueryShape one = query_shape(*m.req, arrays[0].get());
      shape.rows = std::max(shape.rows, one.rows);
      shape.cols = std::max(shape.cols, one.cols);
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
        run_submatrix_group(
            ms, arrays[0],
            degraded ? nullptr : index_for(front, *arrays[0], ms.size()),
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
  const Field q = req.find("query");
  if (!q.raw().starts_with('{')) {
    set_error(out, "bad_request: explain requires an object field \"query\"");
    return;
  }
  Request inner;
  try {
    inner = parse_request(std::string(q.raw()));
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

  const Operands ops = resolve_operands(inner, registry_);
  const plan::QueryShape shape = query_shape(inner, ops[0].get());
  const plan::Plan pl = planner_.plan(shape);

  // One uncached run of the inner query, timed.  explain is
  // observability: neither this run nor its timing touches the result
  // cache, and the inner bytes it reports are the same bytes the plain
  // query produces.
  BatchOutcome sub;
  Member ms[1] = {Member{&inner, &sub}};
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
    // and then the index price, which prefer_index weighed against a
    // direct solve of the whole operand (predicted_us is the direct
    // route's price at the region): actual_us times the index route.
    const bool use_index =
        ops[0] != nullptr && index_for(inner, *ops[0], 1) != nullptr;
    plan_o["use_index"] = use_index;
    if (use_index) {
      plan_o["index_predicted_us"] =
          plan::index_lookup_ns(planner_.profile(), index_shape(*ops[0], 1)) /
          1000.0;
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

namespace {

using GroupKey = std::tuple<Op, std::int64_t, std::int64_t, std::size_t>;

/// run()'s bookkeeping, kept per thread so that a warm run allocates
/// none of it.  run() never re-enters on one thread: pool chunks run
/// dispatch_group and kernels, never run().
struct RunScratch {
  std::vector<std::size_t> misses;  // request order
  std::vector<std::pair<GroupKey, Member>> keyed;
  std::vector<Member> members;  // the misses, grouped
  std::vector<std::span<Member>> groups, pending, untouched;
  std::vector<std::function<void()>> jobs;
};

RunScratch& run_scratch() {
  thread_local RunScratch scratch;
  return scratch;
}

}  // namespace

void Batcher::run(std::span<const Request> reqs,
                  std::span<const ServeClock::time_point> deadlines,
                  std::span<BatchOutcome> out,
                  std::span<const Admitted> admitted) {
  RunScratch& s = run_scratch();
  s.misses.clear();
  s.keyed.clear();

  // Cache pass: answered hits never reach a group.  explain requests
  // bypass the cache entirely (their payload embeds a measured time).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    BatchOutcome& o = out[i];
    o.ok = false;
    o.result.clear();
    o.error.clear();
    if (r.op == Op::Explain) {
      run_explain(r, o);
      continue;
    }
    if (cache_.enabled()) {
      EndpointMetrics& em = metrics_.endpoint(r.op);
      if (!admitted.empty() && admitted[i].probe_missed) {
        cache_.count_miss(r.hash);  // probed once already, at admission
        em.cache_misses.add();
      } else if (cache_.get(r.signature, r.hash, o.result)) {
        o.ok = true;
        em.cache_hits.add();
        continue;
      } else {
        em.cache_misses.add();
      }
    }
    s.misses.push_back(i);
    // The group key -- op, operand ids, and with coalescing off the
    // request's own index -- fixes everything a handler dispatches on;
    // with coalescing off every request is its own group (same code
    // path, so responses cannot depend on the toggle).
    const OpSpec& spec = op_spec(r.op);
    s.keyed.emplace_back(
        GroupKey{r.op, operand_id(r, spec.operands[0]),
                 operand_id(r, spec.operands[1]), coalesce_ ? 0 : i},
        Member{&r, &o, deadlines.empty() ? kNoDeadline : deadlines[i],
               admitted.empty() ? nullptr : &admitted[i].operands});
  }

  // Group the misses: sorted by key, members of a group in request order.
  std::sort(s.keyed.begin(), s.keyed.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first, a.second.req) < std::tie(b.first, b.second.req);
  });
  s.members.clear();
  s.groups.clear();
  for (const auto& [key, m] : s.keyed) s.members.push_back(m);
  for (std::size_t i = 0; i < s.keyed.size();) {
    std::size_t j = i + 1;
    while (j < s.keyed.size() && s.keyed[j].first == s.keyed[i].first) ++j;
    s.groups.emplace_back(s.members.data() + i, j - i);
    i = j;
  }

  // One engine submission for the whole batch; dispatch_group never
  // throws.  The submission itself is pooled, though, so an exec fault
  // site can fire on a jobs chunk *before* its group ran -- in which
  // case that group is completely untouched (a group is all-answered or
  // untouched, never partial).  Resubmit the untouched groups, bounded
  // by max_retries.
  s.pending.assign(s.groups.begin(), s.groups.end());
  for (std::size_t attempt = 0; !s.pending.empty(); ++attempt) {
    s.jobs.clear();
    for (std::span<Member>& g : s.pending) {
      s.jobs.emplace_back([this, &g] { dispatch_group(g); });
    }
    try {
      exec::parallel_jobs(s.jobs);
      break;
    } catch (const fault::InjectedFault& f) {
      s.untouched.clear();
      for (const std::span<Member> g : s.pending) {
        const bool unanswered =
            std::any_of(g.begin(), g.end(), [](const Member& m) {
              return !m.out->ok && m.out->error.empty();
            });
        if (unanswered) s.untouched.push_back(g);
      }
      s.pending.swap(s.untouched);
      if (s.pending.empty()) break;
      if (attempt >= res_.max_retries) {
        for (const std::span<Member> g : s.pending) {
          fail_unanswered(g, std::string("fault_injected: ") +
                                 fault::site_name(f.site) +
                                 " at batch dispatch");
          fault_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      batch_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Memoize fresh successes under their signatures, in request order,
  // tagged with the array ids they read so unregister can invalidate
  // them.
  if (cache_.enabled()) {
    for (const std::size_t i : s.misses) {
      if (out[i].ok) {
        cache_.put_tagged(reqs[i].signature, reqs[i].hash, out[i].result,
                          result_tags(reqs[i]));
      }
    }
  }
}

}  // namespace pmonge::serve
