#include "plan/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/string_edit.hpp"
#include "exec/thread_pool.hpp"
#include "index/index.hpp"
#include "monge/generators.hpp"
#include "monge/smawk.hpp"
#include "par/monge_rowminima.hpp"
#include "pram/machine.hpp"
#include "serve/json.hpp"
#include "support/rng.hpp"

namespace pmonge::plan {

namespace {

using Clock = std::chrono::steady_clock;

/// Best-of-`reps` wall nanoseconds for `body` (min is the right statistic
/// for a constant-fitting microbenchmark: noise only adds).
template <class Body>
double best_ns(int reps, Body&& body) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (r == 0 || ns < best) best = ns;
  }
  return best < 1 ? 1 : best;
}

}  // namespace

CostProfile calibrate() {
  CostProfile prof;  // start from the deterministic defaults
  Rng rng(12345);
  const std::size_t threads = exec::num_threads();

  // Brute: scan every cell of a 512x512 array, tracking the row minimum.
  {
    const std::size_t n = 512;
    auto a = monge::random_monge(n, n, rng);
    volatile std::int64_t sink = 0;
    const double ns = best_ns(5, [&] {
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t best = a(i, 0);
        for (std::size_t j = 1; j < n; ++j) best = std::min(best, a(i, j));
        acc += best;
      }
      sink = acc;
    });
    prof.brute_ns_per_cell = std::max(0.05, ns / static_cast<double>(n * n));
  }

  // Sequential: SMAWK on 1024x1024 is O(m + n) probes.
  {
    const std::size_t n = 1024;
    auto a = monge::random_monge(n, n, rng);
    volatile std::int64_t sink = 0;
    const double ns = best_ns(5, [&] {
      auto r = monge::smawk_row_minima(a);
      sink = r[0].value;
    });
    prof.seq_ns_per_probe = std::max(0.5, ns / static_cast<double>(2 * n));
  }

  // Edit DP: one cell of the Wagner-Fischer recurrence, as served (cost
  // only, one rolling row).
  {
    const std::size_t n = 256;
    const std::string x(n, 'a'), y(n, 'b');
    volatile std::int64_t sink = 0;
    const double ns = best_ns(3, [&] {
      sink = apps::edit_distance_cost(x, y, apps::EditCosts{});
    });
    prof.edit_ns_per_cell = std::max(0.2, ns / static_cast<double>(n * n));
  }

  // Parallel: two row-minima runs; meter work W and wall time t obey
  // t ~= spawn + c_work * W / T, so two points recover both constants.
  {
    double t1 = 0, t2 = 0, w1 = 0, w2 = 0;
    for (int which = 0; which < 2; ++which) {
      const std::size_t n = which == 0 ? 256 : 2048;
      auto a = monge::random_monge(n, n, rng);
      std::uint64_t work = 0;
      volatile std::int64_t sink = 0;
      const double ns = best_ns(3, [&] {
        pram::Machine mach(pram::Model::CRCW_COMMON);
        auto r = par::monge_row_minima(mach, a);
        work = mach.meter().work;
        sink = r[0].value;
      });
      (which == 0 ? t1 : t2) = ns;
      (which == 0 ? w1 : w2) = static_cast<double>(work);
    }
    const double t = static_cast<double>(threads);
    if (w2 > w1) {
      const double c_work = std::max(0.2, (t2 - t1) * t / (w2 - w1));
      prof.par_ns_per_work = c_work;
      prof.par_dispatch_ns = std::max(500.0, t1 - c_work * w1 / t);
    }
    // Depth folds into the fitted dispatch constant at these sizes.
    prof.par_depth_ns = 0;
  }

  // Index node visit: build a submatrix query index over 512x512 and
  // time a fixed batch of lookups; each costs ~(lg m + lg n) node
  // visits (canonical nodes + partial-piece solves folded in).
  {
    const std::size_t n = 512;
    serve::ArrayEntry entry;
    entry.kind = serve::ArrayEntry::Kind::Monge;
    entry.data = monge::random_monge(n, n, rng);
    index::Index idx(std::make_shared<const serve::ArrayEntry>(
        std::move(entry)));
    idx.build();
    volatile std::int64_t sink = 0;
    const std::size_t queries = 64;
    const double ns = best_ns(5, [&] {
      std::int64_t acc = 0;
      for (std::size_t k = 0; k < queries; ++k) {
        const std::size_t r0 = (k * 7) % (n / 2);
        const std::size_t c0 = (k * 13) % (n / 2);
        const auto r = idx.submatrix_opt(false, r0, r0 + n / 2, c0,
                                         c0 + n / 2);
        acc += r.value;
      }
      sink = acc;
    });
    const double lgn = detail::lg2(static_cast<double>(n) + 2);
    prof.index_node_ns =
        std::max(5.0, ns / (static_cast<double>(queries) * 2 * lgn));
  }

  prof.id = "calibrated-v1-" + std::to_string(threads) + "t";
  return prof;
}

std::string profile_to_json(const CostProfile& prof) {
  serve::Json::Obj o;
  o["format"] = serve::Json("pmonge-profile-v1");
  o["id"] = serve::Json(prof.id);
  o["brute_ns_per_cell"] = serve::Json(prof.brute_ns_per_cell);
  o["seq_ns_per_probe"] = serve::Json(prof.seq_ns_per_probe);
  o["edit_ns_per_cell"] = serve::Json(prof.edit_ns_per_cell);
  o["par_ns_per_work"] = serve::Json(prof.par_ns_per_work);
  o["par_dispatch_ns"] = serve::Json(prof.par_dispatch_ns);
  o["par_depth_ns"] = serve::Json(prof.par_depth_ns);
  o["index_node_ns"] = serve::Json(prof.index_node_ns);
  return serve::Json(std::move(o)).dump();
}

CostProfile profile_from_json(const std::string& text,
                              const std::string& origin) {
  const auto fail = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("invalid cost profile \"" + origin +
                              "\": " + why);
  };
  serve::Json j;
  try {
    j = serve::Json::parse(text);
  } catch (const serve::JsonError& e) {
    throw fail(e.what());
  }
  if (j.type() != serve::Json::Type::Object) {
    throw fail("top level is not an object");
  }
  const serve::Json* fmt = j.find("format");
  if (fmt == nullptr || fmt->type() != serve::Json::Type::String ||
      fmt->as_string() != "pmonge-profile-v1") {
    throw fail("missing or unsupported \"format\" (want pmonge-profile-v1)");
  }
  CostProfile prof;
  const serve::Json* id = j.find("id");
  if (id == nullptr || id->type() != serve::Json::Type::String ||
      id->as_string().empty()) {
    throw fail("missing or empty \"id\"");
  }
  prof.id = id->as_string();

  const auto num = [&](const char* key, bool allow_zero) {
    const serve::Json* v = j.find(key);
    if (v == nullptr || !v->is_number()) {
      throw fail(std::string("missing numeric \"") + key + "\"");
    }
    const double d = v->as_double();
    if (d < 0 || (!allow_zero && d <= 0)) {
      throw fail(std::string("\"") + key + "\" must be " +
                 (allow_zero ? ">= 0" : "> 0"));
    }
    return d;
  };
  prof.brute_ns_per_cell = num("brute_ns_per_cell", false);
  prof.seq_ns_per_probe = num("seq_ns_per_probe", false);
  prof.edit_ns_per_cell = num("edit_ns_per_cell", false);
  prof.par_ns_per_work = num("par_ns_per_work", false);
  prof.par_dispatch_ns = num("par_dispatch_ns", true);
  prof.par_depth_ns = num("par_depth_ns", true);
  // Added after pmonge-profile-v1 shipped: older profiles omit it and
  // keep the built-in default.
  if (j.find("index_node_ns") != nullptr) {
    prof.index_node_ns = num("index_node_ns", false);
  }
  return prof;
}

void save_profile(const CostProfile& prof, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write cost profile \"" + path + "\"");
  }
  out << profile_to_json(prof) << "\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write cost profile \"" + path + "\"");
  }
}

CostProfile load_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read cost profile \"" + path + "\"");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return profile_from_json(ss.str(), path);
}

}  // namespace pmonge::plan
