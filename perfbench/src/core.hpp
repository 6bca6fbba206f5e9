// The benchmark's own logic, free of sockets and processes so the
// self-tests (tests/selftest.cpp) can pin it down: exact quantiles with
// their sample counts, span trees and self time, response
// classification, seeded request streams, and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Quantiles
// ---------------------------------------------------------------------

/// One quantile of a sample: the nearest-rank value, the sample size and
/// how many samples lie strictly beyond that rank (the tail it rests on).
struct Quantile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(q * n) (1-based).  An empty sample gives {0, 0, 0}.
Quantile quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (nearest rank); 0 for an empty one.
double median(std::vector<double> v);

/// The median over windows of each window's median: `window[i]` names
/// the window of `values[i]`; windows without samples are skipped.  A
/// minority of disturbed windows cannot move it.
double windowed_median(const std::vector<double>& values,
                       const std::vector<std::uint32_t>& window);

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One closed interval of work.  Benchmark spans are recorded around the
/// calls the benchmark makes into a layer; server spans are imported from
/// the server's trace export.  Times are nanoseconds on the recorder's
/// own clock; `parent` indexes the same span vector (-1 = root).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t trace_id = 0;
  std::uint32_t lane = 0;
  std::string detail;
  double arg = 0;

  std::uint64_t dur_ns() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may nest,
/// overlap each other, or stick out of the parent; only the covered part
/// of the parent counts once).
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Infer parents for spans recorded without them: on each lane, a span's
/// parent is the innermost span on the same lane that is still open when
/// it starts.  Spans on different lanes are never linked.
void link_by_lane(std::vector<Span>& spans);

/// Thread-safe in-memory span recorder.  open() returns a handle that
/// close() completes; spans stay in memory until the run ends.
class SpanLog {
 public:
  std::size_t open(const char* name, std::int64_t parent, std::uint64_t trace_id);
  void close(std::size_t handle);
  /// Record an already-closed span (e.g. a client round trip).
  void add(Span s);
  std::vector<Span> take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Monotonic nanoseconds (steady clock).
std::uint64_t now_ns();

// ---------------------------------------------------------------------
// Response classification
// ---------------------------------------------------------------------

enum class Outcome { Ok, Refused, Failed, Mismatch };

/// Classify one response line.  `ok:true` is Ok when it equals
/// `expected` byte for byte and Mismatch otherwise; an `overloaded` or
/// `deadline_*` error is Refused; every other error or malformed line is
/// Failed.
Outcome classify(std::string_view response, std::string_view expected);

/// Per-run op accounting.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;

  void add(Outcome o);
  std::uint64_t not_ok() const { return refused + failed + mismatched; }
};

// ---------------------------------------------------------------------
// Request streams (the server sees only these generated lines)
// ---------------------------------------------------------------------

inline constexpr std::size_t kHotRows = 64;

/// hot_hits: connection `conn`'s request cycle of `count` lines over the
/// 3 x 64 (rowmin, rowmax, staircase_rowmin) x row signatures, walked in
/// seeded random permutations so every signature recurs in every cycle.
std::vector<std::string> hot_lines(std::uint64_t seed, std::size_t conn,
                                   std::size_t count, std::int64_t monge_id,
                                   std::int64_t staircase_id);

/// burst_mix operands and arrival schedule.
struct BurstSpec {
  double rate = 100;             // bursts per second (Poisson)
  double warm_s = 1;             // warm-up bursts due in [0, warm_s)
  double measure_s = 10;         // measured bursts due in [warm_s, warm_s + measure_s)
  std::size_t lines_per_burst = 32;
  std::int64_t rows = 4096;
  std::int64_t cols = 1024;
  std::int64_t monge_id = 0;
  std::int64_t staircase_id = 1;
  bool trace_ids = false;        // add the trace_id envelope field
};

struct BurstPlan {
  std::vector<std::uint64_t> due_ns;  // per burst, from the schedule start
  std::size_t warm_bursts = 0;        // bursts [0, warm_bursts) are warm-up
  std::vector<std::string> lines;     // burst b owns lines [b*L, (b+1)*L)
  std::vector<std::string> ops;       // op name per line
};

/// The seeded burst_mix stream: round(rate * warm_s) warm-up and
/// round(rate * measure_s) measured bursts, each set placed as sorted
/// uniform points in its window (a Poisson process given its count), of
/// rowmin / rowmax / staircase_rowmin / submatrix_min / submatrix_max /
/// string_edit lines.  Submatrix regions never repeat.
BurstPlan burst_plan(std::uint64_t seed, const BurstSpec& spec);

// ---------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// The benchmark's result: the last stdout line is its JSON form.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
  std::string json() const;
};

/// A number as JSON (all significant digits; non-finite values, which
/// only a run with refused ops can produce, print as 1e300).
std::string json_number(double v);

}  // namespace perfbench
