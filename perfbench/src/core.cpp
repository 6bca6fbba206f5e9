#include "core.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>

#include "support/rng.hpp"

namespace perfbench {

Quantile quantile_sorted(const std::vector<double>& sorted, double q) {
  Quantile out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q * n = 999.9999999 (0.999 * 1000) at rank 1000.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t k = (v.size() + 1) / 2 - 1;  // nearest rank of 0.5
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double windowed_median(const std::vector<double>& values,
                       const std::vector<std::uint32_t>& window) {
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < values.size() && i < window.size(); ++i) {
    if (window[i] >= by_window.size()) by_window.resize(window[i] + 1);
    by_window[window[i]].push_back(values[i]);
  }
  std::vector<double> medians;
  for (std::vector<double>& w : by_window) {
    if (!w.empty()) medians.push_back(median(std::move(w)));
  }
  return median(std::move(medians));
}

// ---------------------------------------------------------------------

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      kids[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : kids[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = s.dur_ns() - std::min(covered, s.dur_ns());
  }
  return out;
}

void link_by_lane(std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Per lane, outer spans first: start ascending, longer first on ties.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<std::size_t> open;
  std::uint32_t lane = 0;
  for (const std::size_t i : order) {
    Span& s = spans[i];
    if (open.empty() || s.lane != lane) {
      open.clear();
      lane = s.lane;
    }
    while (!open.empty() && spans[open.back()].end_ns <= s.start_ns) {
      open.pop_back();
    }
    s.parent = open.empty() ? -1 : static_cast<std::int64_t>(open.back());
    open.push_back(i);
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t SpanLog::open(const char* name, std::int64_t parent,
                          std::uint64_t trace_id) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.trace_id = trace_id;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t handle) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[handle].end_ns = t;
}

void SpanLog::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

// ---------------------------------------------------------------------

Outcome classify(std::string_view response, std::string_view expected) {
  const std::size_t ok = response.find("\"ok\":");
  if (ok == std::string_view::npos) return Outcome::Failed;
  if (response.substr(ok + 5, 4) == "true") {
    return response == expected ? Outcome::Ok : Outcome::Mismatch;
  }
  const std::size_t err = response.find("\"error\":\"");
  if (err == std::string_view::npos) return Outcome::Failed;
  const std::string_view what = response.substr(err + 9);
  if (what.starts_with("overloaded") || what.starts_with("deadline_")) {
    return Outcome::Refused;
  }
  return Outcome::Failed;
}

void Tally::add(Outcome o) {
  switch (o) {
    case Outcome::Ok: ++ok; break;
    case Outcome::Refused: ++refused; break;
    case Outcome::Failed: ++failed; break;
    case Outcome::Mismatch: ++mismatched; break;
  }
}

// ---------------------------------------------------------------------

namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string row_line(const char* op, std::int64_t id, std::int64_t array,
                     std::int64_t row) {
  return std::string("{\"op\":\"") + op + "\",\"id\":" + std::to_string(id) +
         ",\"array\":" + std::to_string(array) +
         ",\"row\":" + std::to_string(row);
}

std::string random_word(pmonge::Rng& rng) {
  static constexpr char kAlphabet[] = "acgt";
  const auto len = static_cast<std::size_t>(rng.uniform_int(6, 20));
  std::string w(len, 'a');
  for (char& c : w) c = kAlphabet[rng.uniform_int(0, 3)];
  return w;
}

}  // namespace

std::vector<std::string> hot_lines(std::uint64_t seed, std::size_t conn,
                                   std::size_t count, std::int64_t monge_id,
                                   std::int64_t staircase_id) {
  static const char* kOps[] = {"rowmin", "rowmax", "staircase_rowmin"};
  constexpr std::size_t kSignatures = 3 * kHotRows;
  pmonge::Rng rng(mix_seed(seed, 100 + conn));
  std::vector<std::size_t> perm(kSignatures);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::vector<std::string> lines;
  lines.reserve(count);
  std::size_t k = kSignatures;
  for (std::size_t i = 0; i < count; ++i) {
    if (k == kSignatures) {
      for (std::size_t j = kSignatures - 1; j > 0; --j) {
        std::swap(perm[j], perm[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(j)))]);
      }
      k = 0;
    }
    const std::size_t sig = perm[k++];
    const std::size_t op = sig / kHotRows;
    lines.push_back(row_line(kOps[op], static_cast<std::int64_t>(i + 1),
                             op == 2 ? staircase_id : monge_id,
                             static_cast<std::int64_t>(sig % kHotRows)) +
                    "}");
  }
  return lines;
}

BurstPlan burst_plan(std::uint64_t seed, const BurstSpec& spec) {
  BurstPlan plan;
  pmonge::Rng sched(mix_seed(seed, 1));
  pmonge::Rng pick(mix_seed(seed, 2));

  auto place = [&](double lo_s, double hi_s) {
    const auto n = static_cast<std::size_t>(std::llround(spec.rate * (hi_s - lo_s)));
    std::vector<double> t(n);
    for (double& x : t) x = sched.uniform(lo_s, hi_s);
    std::sort(t.begin(), t.end());
    for (const double x : t) plan.due_ns.push_back(static_cast<std::uint64_t>(x * 1e9));
    return n;
  };
  plan.warm_bursts = place(0, spec.warm_s);
  place(spec.warm_s, spec.warm_s + spec.measure_s);

  // Cumulative op weights (percent): rowmin 25, rowmax 15,
  // staircase_rowmin 20, submatrix_min 15, submatrix_max 10, string_edit 15.
  static constexpr std::array<std::pair<int, const char*>, 6> kMix = {{
      {25, "rowmin"}, {40, "rowmax"}, {60, "staircase_rowmin"},
      {75, "submatrix_min"}, {85, "submatrix_max"}, {100, "string_edit"}}};
  std::set<std::array<std::int64_t, 4>> regions;
  const std::size_t total = plan.due_ns.size() * spec.lines_per_burst;
  plan.lines.reserve(total);
  plan.ops.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto id = static_cast<std::int64_t>(i + 1);
    const std::int64_t dice = pick.uniform_int(0, 99);
    std::size_t k = 0;
    while (dice >= kMix[k].first) ++k;
    const char* op = kMix[k].second;
    std::string line;
    if (k <= 2) {
      line = row_line(op, id, k == 2 ? spec.staircase_id : spec.monge_id,
                      pick.uniform_int(0, spec.rows - 1));
    } else if (k <= 4) {
      std::array<std::int64_t, 4> r{};
      do {
        const std::int64_t ra = pick.uniform_int(0, spec.rows - 1);
        const std::int64_t rb = pick.uniform_int(0, spec.rows - 1);
        const std::int64_t ca = pick.uniform_int(0, spec.cols - 1);
        const std::int64_t cb = pick.uniform_int(0, spec.cols - 1);
        r = {std::min(ra, rb), std::max(ra, rb), std::min(ca, cb), std::max(ca, cb)};
      } while (!regions.insert(r).second);
      line = std::string("{\"op\":\"") + op + "\",\"id\":" + std::to_string(id) +
             ",\"array\":" + std::to_string(spec.monge_id) +
             ",\"r0\":" + std::to_string(r[0]) + ",\"r1\":" + std::to_string(r[1]) +
             ",\"c0\":" + std::to_string(r[2]) + ",\"c1\":" + std::to_string(r[3]);
    } else {
      line = std::string("{\"op\":\"string_edit\",\"id\":") + std::to_string(id) +
             ",\"x\":\"" + random_word(pick) + "\",\"y\":\"" + random_word(pick) + "\"";
    }
    if (spec.trace_ids) line += ",\"trace_id\":" + std::to_string(id);
    line += "}";
    plan.lines.push_back(std::move(line));
    plan.ops.emplace_back(op);
  }
  return plan;
}

// ---------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "1e300";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Result::json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
