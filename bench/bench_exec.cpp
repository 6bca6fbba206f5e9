// Host-engine self-speedup: wall-clock scaling of the *same* charged
// computation as the exec lane count grows.
//
// Workload: a batch of independent 256 x 256 dense Monge row-minima
// searches fanned out through Machine::parallel_branches -- the exact
// shape the PRAM skeletons produce everywhere else -- at total row
// counts n in {1k, 4k, 16k}.  For each lane count the harness checks
// the determinism contract before timing: outputs and CostMeter totals
// must be bit-identical to the 1-lane run (a "det" column says ok; any
// divergence aborts the bench loudly).
//
// Lanes are pinned one per CPU while the host has enough allowed CPUs:
// the pool's workers are created on the other CPUs, then the submitting
// thread pins itself to the first.  Left to the scheduler, two lanes can
// share a CPU, and wake-up latency rather than the engine sets the
// number.  Lane counts beyond the allowed CPUs run unpinned ("pinned"
// says no) and can only measure oversubscription.  "pool batches" counts
// the engine submissions of one run -- a pure function of the fork
// predictions and the lane count, so it is the same on every host.
//
// There is no speed gate: read the speedups against `nproc`.
//
//   --max=N        largest total row count            (16384)
//   --reps=N       timed runs per cell, best kept     (3)
//   --seed=N       operand seed                       (23)
//   --json[=PATH]  machine-readable records           (BENCH_exec.json)
#include <sched.h>

#include <chrono>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "exec/thread_pool.hpp"
#include "monge/generators.hpp"
#include "par/monge_rowminima.hpp"
#include "pram/machine.hpp"
#include "support/rng.hpp"

using namespace pmonge;

namespace {

struct BatchResult {
  std::vector<std::vector<monge::RowOpt<std::int64_t>>> mins;
  std::uint64_t time = 0, work = 0, peak = 0;
  bool operator==(const BatchResult&) const = default;
};

BatchResult run_batch(
    const std::vector<monge::DenseArray<std::int64_t>>& arrays) {
  BatchResult r;
  r.mins.resize(arrays.size());
  pram::Machine mach(pram::Model::CRCW_COMMON);
  mach.parallel_branches(arrays.size(),
                         [&](std::size_t b, pram::Machine& sub) {
                           r.mins[b] = par::monge_row_minima(sub, arrays[b]);
                         });
  r.time = mach.meter().time;
  r.work = mach.meter().work;
  r.peak = mach.meter().peak_processors;
  return r;
}

/// CPUs this process may run on, in increasing order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Rebuild the engine with `lanes` lanes.  With enough CPUs, the workers
/// are created while this thread is pinned to cpus[1..lanes) (threads
/// inherit their creator's affinity) and this thread then pins itself to
/// cpus[0]; otherwise every lane may run anywhere in `cpus`.  Returns
/// whether the lanes are pinned.
bool build_engine(std::size_t lanes, const std::vector<int>& cpus) {
  const bool pinned = lanes <= cpus.size();
  if (pinned && lanes >= 2) {
    pin_self({cpus.begin() + 1, cpus.begin() + static_cast<long>(lanes)});
  } else {
    pin_self(cpus);
  }
  exec::set_num_threads(lanes);
  if (pinned) pin_self({cpus.front()});
  return pinned;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto nmax = static_cast<std::size_t>(cli.get_int("max", 16384));
  const int reps = cli.get_int("reps", 3);
  Rng rng(cli.get_int("seed", 23));
  auto json = bench::JsonRecords::from_cli(cli, "exec", "BENCH_exec.json");
  constexpr std::size_t kSide = 256;

  const std::vector<int> cpus = allowed_cpus();
  const std::size_t nproc = std::thread::hardware_concurrency();
  const std::string host = bench::cpu_model();
  bench::print_header(
      "Engine self-speedup: batched 256 x 256 Monge row minima");
  std::cout << "host: " << host << ", nproc " << nproc << ", "
            << cpus.size()
            << " allowed CPUs (wall-clock speedup is bounded by these; "
               "charged costs are thread-invariant by construction)\n";

  Table t({"total rows", "arrays", "threads", "pinned", "best ms",
           "speedup vs 1t", "pool batches", "det", "charged steps",
           "charged work"});

  const std::size_t saved_threads = exec::num_threads();
  for (std::size_t total = 1024; total <= nmax; total *= 4) {
    const std::size_t narrays = (total + kSide - 1) / kSide;
    std::vector<monge::DenseArray<std::int64_t>> arrays;
    arrays.reserve(narrays);
    for (std::size_t b = 0; b < narrays; ++b) {
      arrays.push_back(monge::random_monge(kSide, kSide, rng));
    }

    BatchResult reference;
    double ms_1t = 0;
    for (std::size_t threads : {1, 2, 4, 8}) {
      const bool pinned = build_engine(threads, cpus);
      BatchResult got = run_batch(arrays);  // warm-up + determinism probe
      const bool det = threads == 1 || got == reference;
      if (threads == 1) reference = std::move(got);
      if (!det) {
        std::cerr << "DETERMINISM VIOLATION at threads=" << threads
                  << " total=" << total << "\n";
        return 1;
      }

      double best_ms = 0;
      std::uint64_t batches = 0;
      for (int rep = 0; rep < reps; ++rep) {
        const std::uint64_t b0 = exec::pool_stats().batches;
        const auto t0 = std::chrono::steady_clock::now();
        BatchResult timed = run_batch(arrays);
        const auto t1 = std::chrono::steady_clock::now();
        batches = exec::pool_stats().batches - b0;
        if (!(timed == reference)) {
          std::cerr << "DETERMINISM VIOLATION at threads=" << threads
                    << " total=" << total << "\n";
          return 1;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      if (threads == 1) ms_1t = best_ms;

      t.add_row({Table::num(total), Table::num(narrays), Table::num(threads),
                 pinned ? "yes" : "no", Table::fixed(best_ms, 2),
                 Table::fixed(ms_1t / best_ms, 2), Table::num(batches), "ok",
                 Table::num(reference.time), Table::num(reference.work)});
      serve::Json::Obj rec;
      rec["host"] = serve::Json(host);
      rec["nproc"] = serve::Json(static_cast<std::int64_t>(nproc));
      rec["total_rows"] = serve::Json(static_cast<std::int64_t>(total));
      rec["arrays"] = serve::Json(static_cast<std::int64_t>(narrays));
      rec["threads"] = serve::Json(static_cast<std::int64_t>(threads));
      rec["pinned"] = serve::Json(pinned);
      rec["best_ms"] = serve::Json(best_ms);
      rec["speedup_vs_1t"] = serve::Json(ms_1t / best_ms);
      rec["pool_batches"] = serve::Json(static_cast<std::int64_t>(batches));
      rec["charged_time"] =
          serve::Json(static_cast<std::int64_t>(reference.time));
      rec["charged_work"] =
          serve::Json(static_cast<std::int64_t>(reference.work));
      json.add(std::move(rec));
    }
  }
  pin_self(cpus);
  exec::set_num_threads(saved_threads);

  t.print(std::cout);
  std::cout << "\nInterpretation: 'charged steps/work' constant down each "
               "size block demonstrates the thread-invariance contract; "
               "pinned 'speedup vs 1t' approaches the lane count while "
               "lanes fit the host's CPUs.\n";
  json.write();
  return 0;
}
