// Shared helpers for the paper-table bench binaries: size sweeps, shape
// columns, and uniform row emission through support/table.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "serve/json.hpp"
#include "support/cli.hpp"
#include "support/series.hpp"
#include "support/table.hpp"

namespace pmonge::bench {

// ---------------------------------------------------------------------------
// Timing: warmup + median-of-N repetition
// ---------------------------------------------------------------------------

struct TimedStats {
  double median_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  std::size_t reps = 0;
};

/// Time `body` with `warmup` throwaway runs (page-in, thread-pool spin-up,
/// branch-predictor settling) followed by `reps` measured runs, reporting
/// the median.  The median, not the mean, is the headline number: a
/// single descheduling blip skews a mean arbitrarily but moves the median
/// at most one rank.
template <class F>
TimedStats timed_median(F&& body, std::size_t warmup = 1,
                        std::size_t reps = 5) {
  using Clock = std::chrono::steady_clock;
  if (reps == 0) reps = 1;
  for (std::size_t i = 0; i < warmup; ++i) body();
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  TimedStats s;
  s.reps = reps;
  s.min_ms = ms.front();
  s.max_ms = ms.back();
  s.median_ms = reps % 2 == 1
                    ? ms[reps / 2]
                    : (ms[reps / 2 - 1] + ms[reps / 2]) / 2.0;
  return s;
}

/// Power-of-two sweep [lo, hi].
inline std::vector<std::size_t> pow2_sweep(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t n = lo; n <= hi; n *= 2) v.push_back(n);
  return v;
}

/// Render the fit of a measured series against a claimed shape: the
/// "ratio flat?" evidence column of every table bench.
inline std::string shape_cell(const std::vector<SeriesPoint>& pts,
                              const Shape& shape) {
  const auto fit = fit_shape(pts, shape);
  return Table::fixed(fit.ratio_first, 2) + " -> " +
         Table::fixed(fit.ratio_last, 2) + " (c~" +
         Table::fixed(fit.constant, 2) + ")";
}

/// The CPU model line of /proc/cpuinfo, naming the host in the records.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

inline void print_header(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

// ---------------------------------------------------------------------------
// Reproduction lines: every seeded failure prints one of these
// ---------------------------------------------------------------------------

/// The copy-pastable reproduction command a seeded test failure leads
/// with: "<env assignments> ctest -R <regex> --output-on-failure".  One
/// line, shell-ready -- a failure report a human cannot paste back into
/// a terminal is a failure report that does not get reproduced.
inline std::string repro_line(const std::string& env_assignments,
                              const std::string& ctest_regex) {
  std::string out;
  if (!env_assignments.empty()) out += env_assignments + " ";
  out += "ctest -R " + ctest_regex + " --output-on-failure";
  return out;
}

/// The fuzz suites' reproduction command (tests/test_fuzz.cpp): pins the
/// failing seed and the thread count, which together fix the run.
inline std::string fuzz_repro(std::uint64_t seed, std::size_t threads) {
  return repro_line("PMONGE_FUZZ_SEED=" + std::to_string(seed) +
                        " PMONGE_THREADS=" + std::to_string(threads),
                    "fuzz");
}

// ---------------------------------------------------------------------------
// Paired differential overhead: the trace and fault acceptance gates
// ---------------------------------------------------------------------------

struct PairedOverhead {
  double off_ms = 0;
  double on_ms = 0;
  double pct = 0;  // "on" slowdown in percent of the "off" baseline
};

/// Time `body` with some binary state off vs on (`set_state(bool)`),
/// leaving it off afterwards.
///
/// Statistics are chosen for a *differential* measurement on a shared
/// machine, where ambient load swamps a few-percent signal:
///   * off/on reps run as adjacent pairs, so slow drift (thermal, page
///     cache, neighbors) hits both sides of a pair about equally;
///   * the order within each pair alternates, cancelling any systematic
///     first-vs-second-run bias (cache residue, frequency ramp);
///   * the reported overhead is the *median of per-pair deltas* over
///     the min off time -- a paired test: one descheduled pair moves
///     the median a rank, where it would wreck a mean or an unpaired
///     min-vs-min comparison.
/// The pair count is floored at 9: this is a pass/fail gate, not a
/// table row, and a handful of pairs cannot clear the noise floor.
template <class F, class S>
PairedOverhead paired_overhead(F&& body, S&& set_state, std::size_t warmup,
                               std::size_t reps) {
  using Clock = std::chrono::steady_clock;
  if (reps < 9) reps = 9;
  const auto timed = [&body, &set_state](bool on) {
    set_state(on);
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  set_state(false);
  for (std::size_t i = 0; i < warmup; ++i) body();
  set_state(true);
  for (std::size_t i = 0; i < warmup; ++i) body();
  std::vector<double> deltas;
  deltas.reserve(reps);
  double off_min = 0, on_min = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const bool off_first = i % 2 == 0;
    const double a = timed(!off_first);
    const double b = timed(off_first);
    const double off = off_first ? a : b;
    const double on = off_first ? b : a;
    deltas.push_back(on - off);
    if (i == 0 || off < off_min) off_min = off;
    if (i == 0 || on < on_min) on_min = on;
  }
  set_state(false);
  std::sort(deltas.begin(), deltas.end());
  const double med = reps % 2 == 1
                         ? deltas[reps / 2]
                         : (deltas[reps / 2 - 1] + deltas[reps / 2]) / 2.0;
  PairedOverhead t;
  t.off_ms = off_min;
  t.on_ms = on_min;
  t.pct = off_min > 0 ? med / off_min * 100.0 : 0.0;
  return t;
}

using TraceOverhead = PairedOverhead;

/// Time `body` with span tracing off vs on (obs::set_enabled), leaving
/// tracing off afterwards.  The spans the traced runs captured stay
/// buffered so the caller can export them with write_trace_out().
template <class F>
TraceOverhead trace_overhead(F&& body, std::size_t warmup, std::size_t reps) {
  return paired_overhead(std::forward<F>(body),
                         [](bool on) { obs::set_enabled(on); }, warmup, reps);
}

/// `--trace-out[=PATH]` smoke: drain the buffered spans and write them
/// as Chrome trace-event JSON (load in ui.perfetto.dev).
inline void write_trace_out(const Cli& cli, const std::string& default_path) {
  if (!cli.has("trace-out")) return;
  const std::string v = cli.get("trace-out", "1");
  const std::string path = v == "1" ? default_path : v;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << obs::chrome_trace_json(obs::collect()).dump() << "\n";
  out.flush();
  if (out) {
    std::cout << "wrote Chrome trace to " << path << "\n";
  } else {
    std::cerr << "error: cannot write " << path << "\n";
  }
}

// ---------------------------------------------------------------------------
// --json: machine-readable result records
// ---------------------------------------------------------------------------

/// Accumulates one canonical-JSON record per measured configuration and
/// writes them as a JSON array, so CI and the analysis notebooks can
/// diff bench results across commits without scraping tables.
///
///   --json            write to the bench's default path (BENCH_<x>.json)
///   --json=PATH       write to PATH
///
/// Disabled (the default) it is a no-op; the human tables always print.
class JsonRecords {
 public:
  /// `bench` stamps every record; `path` empty disables.
  JsonRecords(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  /// Resolve the path from `--json[=PATH]`; empty (disabled) without it.
  static JsonRecords from_cli(const Cli& cli, const std::string& bench,
                              const std::string& default_path) {
    if (!cli.has("json")) return JsonRecords(bench, "");
    const std::string v = cli.get("json", "1");
    return JsonRecords(bench, v == "1" ? default_path : v);
  }

  bool enabled() const { return !path_.empty(); }

  /// Append one record; the "bench" field is stamped automatically.
  void add(serve::Json::Obj fields) {
    if (!enabled()) return;
    fields["bench"] = serve::Json(bench_);
    records_.emplace_back(std::move(fields));
  }

  /// Write the array (canonical bytes, one record per line) and say so.
  void write() {
    if (!enabled()) return;
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << records_[i].dump() << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.flush();
    if (out) {
      std::cout << "wrote " << records_.size() << " records to " << path_
                << "\n";
    } else {
      std::cerr << "error: cannot write " << path_ << "\n";
    }
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<serve::Json> records_;
};

}  // namespace pmonge::bench
