// Analytic cost model for the execution planner (src/plan).
//
// Every query the serve layer answers has one or more interchangeable
// routes to the same bytes, and kOpClasses below lists them per op
// class: a brute-force scan of exactly the queried cells, the
// sequential O(m+n)-probe SMAWK solver (monge/smawk.hpp,
// monge/staircase_seq.hpp), or the paper's parallel kernels (src/par)
// on the simulated PRAM over the host engine.  The planner picks the
// cheapest listed route by evaluating an analytic wall-time prediction
// whose *shape* comes from the paper's bounds --
//
//   brute       c_cell * (queried cells)                      (n^2-ish)
//   sequential  c_probe * (m + n)                             ([AKM+87])
//   parallel    c_spawn + c_depth * lg n lglg n
//                       + c_work * W / T                      (Lemma 2.1 /
//                                                              Thm 2.3 work,
//                                                              Brent on T
//                                                              host lanes)
//
// -- and whose *constants* come from a CostProfile: either the
// deterministic built-in defaults below or a machine profile fitted by
// plan/calibrate and loaded from JSON (`--profile` / PMONGE_PROFILE).
// Predictions steer execution strategy and admission only; they never
// change response bytes (every route returns the leftmost optimum).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "exec/parallel.hpp"

namespace pmonge::plan {

/// Which family of query a shape describes; fixes which routes and
/// cost formulas apply.  Staircase row searches share RowSearch (the
/// sequential staircase solver's probe count is also O(m + n)).
enum class OpClass : std::uint8_t {
  RowSearch,     // rowmin/rowmax/staircase_*: operand m x n, b queried rows
  TubeSearch,    // tubemax/tubemin: rows = p, cols = q (middle), b points
  EditDistance,  // string_edit: rows = |x|, cols = |y|, b jobs
  GeometricApp,  // largest_rect / empty_rect / polygon_neighbors: rows =
                 // points, b instances
  SubmatrixSearch,  // submatrix_min/submatrix_max: operand m x n, b regions
};

/// Algorithm variant a plan selects.
enum class Algo : std::uint8_t {
  Brute,       // scan exactly the queried cells (the DP for string edit)
  Sequential,  // SMAWK / sequential staircase solver
  Parallel,    // the paper's parallel kernel on the exec engine
};

inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Brute: return "brute";
    case Algo::Sequential: return "sequential";
    case Algo::Parallel: return "parallel";
  }
  return "?";
}

/// One row of the route table: an op class's wire name and the routes it
/// has, simplest first.  Each listed route has one predicted_ns formula
/// and one serve handler.  The planner, fixed dispatch (`--no-plan`: the
/// last route), the degraded path (Sequential if listed, else the first
/// route) and the chaos plan rotation choose only among these.
struct OpClassInfo {
  OpClass op;
  const char* name;
  std::span<const Algo> routes;
};

inline constexpr Algo kSearchRoutes[] = {Algo::Brute, Algo::Sequential,
                                         Algo::Parallel};
// The per-point scan, or par::tube_*_points, which wins at a large middle
// dimension.
inline constexpr Algo kTubeRoutes[] = {Algo::Brute, Algo::Parallel};
// The Wagner-Fischer DP only.  The simulated DIST-matrix composition
// (apps::edit_distance_par) is a paper bound, not a route: on a 4-vCPU
// Xeon at 4 lanes it ran 150-3,733x slower than the DP at 32-300
// characters.
inline constexpr Algo kEditRoutes[] = {Algo::Brute};
// The parallel pipelines only: no sequential twin is wired.
inline constexpr Algo kGeometricRoutes[] = {Algo::Parallel};

/// The route table, indexed by OpClass.
inline constexpr OpClassInfo kOpClasses[] = {
    {OpClass::RowSearch, "row_search", kSearchRoutes},
    {OpClass::TubeSearch, "tube_search", kTubeRoutes},
    {OpClass::EditDistance, "edit_distance", kEditRoutes},
    {OpClass::GeometricApp, "geometric_app", kGeometricRoutes},
    {OpClass::SubmatrixSearch, "submatrix_search", kSearchRoutes},
};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kOpClasses); ++i) {
        if (static_cast<std::size_t>(kOpClasses[i].op) != i) return false;
      }
      return true;
    }(),
    "kOpClasses rows must follow OpClass order");

constexpr const OpClassInfo& op_class_info(OpClass c) {
  return kOpClasses[static_cast<std::size_t>(c)];
}

/// What a query touches, in the units OpClass defines.  batch is the
/// number of coalesced queries sharing the run (>= 1).
struct QueryShape {
  OpClass op = OpClass::RowSearch;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t batch = 1;
};

/// Per-machine constants (nanoseconds).  The built-in profile is a
/// deterministic compile-time default, so planner behavior -- and
/// therefore every test -- never depends on having run calibration.
struct CostProfile {
  std::string id = "builtin-v1";
  double brute_ns_per_cell = 1.5;   // one entry probe in a tight scan
  double seq_ns_per_probe = 6.0;    // one SMAWK probe (view composition)
  double edit_ns_per_cell = 3.0;    // one DP cell of the edit recurrence
  double par_ns_per_work = 4.0;     // one unit of charged PRAM work
  // Entering the pool (submission + sync): built in as the kappa units
  // of work the engine's fork rule keeps off the pool (exec/parallel.hpp).
  double par_dispatch_ns = 4.0 * static_cast<double>(exec::kForkWork);
  double par_depth_ns = 250;        // one charged parallel step (barrier)
  double index_node_ns = 120;       // one query-index node visit (segment-
                                    // tree range query + breakpoint search)
};

/// The deterministic built-in profile (the CostProfile defaults).
inline CostProfile builtin_profile() { return CostProfile{}; }

namespace detail {

inline double lg2(double x) {
  double l = 0;
  while (x > 1) {
    x /= 2;
    ++l;
  }
  return l < 1 ? 1 : l;
}

}  // namespace detail

/// Predicted wall nanoseconds for running `shape` with `algo` under
/// `prof` on `threads` execution lanes: one formula per route that
/// kOpClasses lists for the shape's class, infinity for any other.
/// Monotone (non-decreasing) in rows, cols and batch for every route, so
/// the min over routes is monotone too.
inline double predicted_ns(const CostProfile& prof, Algo algo,
                           const QueryShape& shape, std::size_t threads) {
  const double m = static_cast<double>(shape.rows);
  const double n = static_cast<double>(shape.cols);
  const double b = static_cast<double>(shape.batch == 0 ? 1 : shape.batch);
  const double t = static_cast<double>(threads == 0 ? 1 : threads);
  const double lgn = detail::lg2(n + 2);
  const double lglgn = detail::lg2(lgn + 2);

  switch (shape.op) {
    case OpClass::RowSearch:
      switch (algo) {
        case Algo::Brute:  // scan the b queried rows, n cells each
          return prof.brute_ns_per_cell * b * n;
        case Algo::Sequential:  // SMAWK over the whole operand + read-off
          return prof.seq_ns_per_probe * (m + n) + prof.brute_ns_per_cell * b;
        case Algo::Parallel: {  // Lemma 2.1 work (b+n) lg n, depth lg n lglg n
          const double work = (b + n) * lgn;
          return prof.par_dispatch_ns + prof.par_depth_ns * lgn * lglgn +
                 prof.par_ns_per_work * work / t;
        }
      }
      break;
    case OpClass::TubeSearch:
      switch (algo) {
        case Algo::Brute:  // scan the q middle indices per point
          return prof.brute_ns_per_cell * b * n;
        case Algo::Parallel: {  // sampled/bracketed search over the points
          const double work = (b + n) * lgn;
          return prof.par_dispatch_ns + prof.par_depth_ns * lgn * lglgn +
                 prof.par_ns_per_work * work / t;
        }
        default:
          break;
      }
      break;
    case OpClass::EditDistance:
      if (algo != Algo::Brute) break;
      // The classic DP fills every cell once.
      return prof.edit_ns_per_cell * b * (m + 1) * (n + 1);
    case OpClass::GeometricApp: {
      if (algo != Algo::Parallel) break;
      // The parallel pipeline: n lg n per instance.
      const double work = b * (m + 2) * detail::lg2(m + 2);
      return prof.par_dispatch_ns + prof.par_ns_per_work * work / t;
    }
    case OpClass::SubmatrixSearch:
      switch (algo) {
        case Algo::Brute:  // scan every cell of each queried region
          return prof.brute_ns_per_cell * b * m * n;
        case Algo::Sequential:  // one SMAWK pass per region
          return prof.seq_ns_per_probe * b * (m + n);
        case Algo::Parallel: {  // chunked SMAWK: O(m + T n) work, Brent
          const double work = (m + n) * lgn;
          return prof.par_dispatch_ns + prof.par_depth_ns * lgn * lglgn +
                 prof.par_ns_per_work * b * work / t;
        }
      }
      break;
  }
  return std::numeric_limits<double>::infinity();
}

/// Predicted wall nanoseconds for answering `shape` through a built
/// query index (src/index): O(lg m + lg n) node visits, each one step of
/// a segment-tree range query over n columns.  The two leaf-edge pieces
/// are not solved at lookup time: they read stored envelopes and block
/// optima, so the node term is the whole formula.
inline double index_lookup_ns(const CostProfile& prof,
                              const QueryShape& shape) {
  const double m = static_cast<double>(shape.rows);
  const double n = static_cast<double>(shape.cols);
  const double b = static_cast<double>(shape.batch == 0 ? 1 : shape.batch);
  return prof.index_node_ns * b *
         (detail::lg2(m + 2) + detail::lg2(n + 2));
}

}  // namespace pmonge::plan
