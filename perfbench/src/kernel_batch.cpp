// kernel_batch: the paper's searches in process, no server.  One op is a
// bundle of three searches on one simulated CRCW machine:
//   * 16 independent 256 x 256 Monge row-minima searches forked by
//     Machine::parallel_branches (the nested-fork shape of the engine);
//   * one 1024 x 1024 staircase-Monge row minima (Theorem 2.3);
//   * one 64 x 64 x 64 Monge-composite tube maxima.
// It runs at a fixed exec lane count below nproc, pinned to as many
// CPUs, so exec, pram and par do all the work and rpc and serve none.
#include <sys/resource.h>
#include <unistd.h>

#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "common.hpp"
#include "exec/thread_pool.hpp"
#include "monge/generators.hpp"
#include "par/monge_rowminima.hpp"
#include "par/staircase_rowminima.hpp"
#include "par/tube_maxima.hpp"
#include "pram/machine.hpp"
#include "support/build_info.hpp"

namespace perfbench {

namespace {

namespace monge = pmonge::monge;
namespace par = pmonge::par;

constexpr std::size_t kArrays = 16;
constexpr std::size_t kSide = 256;
constexpr std::size_t kStair = 1024;
constexpr std::size_t kTube = 64;
using Dense = monge::DenseArray<std::int64_t>;

struct Operands {
  std::vector<Dense> monge;
  monge::StaircaseInstance stair;
  monge::CompositeInstance comp;
  std::optional<monge::StaircaseArray<Dense>> view;  // over stair, in place
};

std::unique_ptr<Operands> make_operands(std::uint64_t seed) {
  auto ops = std::make_unique<Operands>();
  pmonge::Rng rng(seed);
  for (std::size_t b = 0; b < kArrays; ++b) {
    ops->monge.push_back(monge::random_monge(kSide, kSide, rng));
  }
  ops->stair = monge::random_staircase_monge(kStair, kStair, rng);
  ops->comp = monge::random_composite(kTube, kTube, kTube, rng);
  ops->view.emplace(ops->stair.base, ops->stair.frontier);
  return ops;
}

struct Bundle {
  std::vector<std::vector<monge::RowOpt<std::int64_t>>> rowmin;
  std::vector<monge::RowOpt<std::int64_t>> stair;
  std::vector<monge::TubeOpt<std::int64_t>> tube;
  std::uint64_t time = 0;  // charged PRAM steps
  std::uint64_t work = 0;  // charged PRAM work

  bool operator==(const Bundle&) const = default;
};

/// One bundle; with a log, a span around every call into par and pram.
Bundle run_bundle(const Operands& ops, SpanLog* log, std::uint64_t id) {
  auto open = [&](const char* name, std::int64_t parent) {
    return log == nullptr ? std::int64_t{-1}
                          : static_cast<std::int64_t>(log->open(name, parent, id));
  };
  auto close = [&](std::int64_t h) {
    if (log != nullptr) log->close(static_cast<std::size_t>(h));
  };
  Bundle out;
  out.rowmin.resize(kArrays);
  pmonge::pram::Machine mach(pmonge::pram::Model::CRCW_COMMON);
  const std::int64_t root = open("bundle", -1);
  const std::int64_t fork = open("pram.parallel_branches", root);
  mach.parallel_branches(kArrays, [&](std::size_t b, pmonge::pram::Machine& sub) {
    const std::int64_t h = open("par.monge_row_minima", fork);
    out.rowmin[b] = par::monge_row_minima(sub, ops.monge[b]);
    close(h);
  });
  close(fork);
  std::int64_t h = open("par.staircase_row_minima", root);
  out.stair = par::staircase_row_minima(mach, *ops.view);
  close(h);
  h = open("par.tube_maxima", root);
  out.tube = par::tube_maxima(mach, ops.comp.d, ops.comp.e).opt;
  close(h);
  close(root);
  out.time = mach.meter().time;
  out.work = mach.meter().work;
  return out;
}

/// Run bundles for `seconds`, checking each against the reference.  A
/// window's rate is its ok bundles over the time they took.
PhaseResult run_bundles(const Operands& ops, const Bundle& ref, double seconds,
                        SpanLog* log) {
  PhaseResult r;
  const std::uint64_t t0 = now_ns();
  r.start_ns = t0;
  const auto phase_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const auto win_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const std::size_t nwin = std::max<std::uint64_t>(1, phase_ns / win_ns);
  std::vector<std::uint64_t> count(nwin, 0);
  std::vector<std::uint64_t> busy_ns(nwin, 0);
  std::uint64_t now = t0;
  while (now < t0 + phase_ns) {
    const std::uint64_t b0 = now;
    const Bundle got = run_bundle(ops, log, r.tally.sent + 1);
    now = now_ns();
    ++r.tally.sent;
    const Outcome o = got == ref ? Outcome::Ok : Outcome::Mismatch;
    r.tally.add(o);
    const std::uint64_t w = std::min<std::uint64_t>((now - t0) / win_ns, nwin - 1);
    r.record(o == Outcome::Ok ? static_cast<double>(now - b0) / 1e3
                              : std::numeric_limits<double>::infinity(),
             t0 + w * win_ns);
    if (o == Outcome::Ok && w < nwin) {
      ++count[w];
      busy_ns[w] += now - b0;
    }
  }
  r.seconds = static_cast<double>(now - t0) / 1e9;
  for (std::size_t w = 0; w < nwin; ++w) {
    if (busy_ns[w] > 0) {
      r.window_rate.push_back(static_cast<double>(count[w]) * 1e9 / static_cast<double>(busy_ns[w]));
    }
  }
  return r;
}

/// Rebuild the exec engine with one lane per CPU of `cpus`: the pool's
/// workers are created while the calling thread is pinned to the other
/// CPUs (threads inherit the creator's affinity), then the caller pins
/// itself to the first one.  Left to the scheduler, the two lanes
/// sometimes shared a CPU for a whole run.
void build_engine(const std::vector<int>& cpus) {
  const std::size_t lanes = std::max<std::size_t>(1, cpus.size());
  if (cpus.size() >= 2) pin_self({cpus.begin() + 1, cpus.end()});
  pmonge::exec::set_num_threads(lanes);
  if (!cpus.empty()) pin_self({cpus.front()});
}

double lane_sum(const pmonge::exec::PoolStats& s, bool chunks) {
  double total = static_cast<double>(chunks ? s.external.chunks : s.external.busy_us);
  for (const auto& w : s.workers) {
    total += static_cast<double>(chunks ? w.chunks : w.busy_us);
  }
  return total;
}

}  // namespace

Result run_kernel_batch(const Options& opt) {
  const Layout layout = make_layout();
  const std::size_t lanes = layout.lanes;

  // Setup: an engine of `lanes` lanes and the operands.  Repeated; the
  // last operands stay.
  std::unique_ptr<Operands> ops;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ops.reset();
    const std::uint64_t t0 = now_ns();
    build_engine(layout.kernel);
    ops = make_operands(opt.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double setup_s = median(setups);

  // Verification: the 1-lane reference every bundle must equal, charged
  // time and work included.
  pmonge::exec::set_num_threads(1);
  const Bundle ref = run_bundle(*ops, nullptr, 0);
  build_engine(layout.kernel);

  const IdleSpinners awake(layout.kernel);
  const PhaseResult warm = run_bundles(*ops, ref, kWarmupSeconds, nullptr);
  const double steal0 = steal_ms(layout.kernel);
  PhaseResult m = run_bundles(*ops, ref, opt.seconds, nullptr);
  const double steal = steal_ms(layout.kernel) - steal0;

  report_host(layout, pmonge::exec::num_threads(), pmonge::support::build_git_describe());
  info("bundle", std::to_string(kArrays) + " x " + std::to_string(kSide) + "^2 Monge row minima + " +
                     std::to_string(kStair) + "^2 staircase row minima + " +
                     std::to_string(kTube) + "^3 tube maxima; charged time=" +
                     std::to_string(ref.time) + " work=" + std::to_string(ref.work));
  report_tally("warmup", warm.tally);
  report_tally("measured", m.tally);
  const double p50 = m.latency_p50();
  report_latency("bundle latency", m.latency_us);
  const double throughput = median(m.window_rate);
  report_windows(m, 1);
  info("env", "steal_ms=" + num(steal, 1));

  Result res;
  account(res, m.tally);
  if (warm.tally.not_ok() > 0) res.correct = false;
  if (!opt.trace) {
    res.set("throughput_ops_s", throughput, "ops/s");
    res.set("latency_p50_us", p50, "us");
    res.set("setup_s", setup_s, "s");
    res.set("peak_rss_mb", peak_rss_mib(getpid()), "MiB");
    return res;
  }

  // Traced pass: the same loop with a span around every call into a
  // layer, between two engine-counter snapshots.
  SpanLog log;
  const pmonge::exec::PoolStats s0 = pmonge::exec::pool_stats();
  const double cpu0 = process_cpu_us(getpid());
  const double tsteal0 = steal_ms(layout.kernel);
  PhaseResult t = run_bundles(*ops, ref, opt.seconds, &log);
  const double tsteal = steal_ms(layout.kernel) - tsteal0;
  const double cpu_us = process_cpu_us(getpid()) - cpu0;
  const pmonge::exec::PoolStats s1 = pmonge::exec::pool_stats();
  report_tally("traced measured", t.tally);
  report_latency("traced bundle latency", t.latency_us);
  const double traced_p50 = t.latency_p50();
  if (t.tally.not_ok() > 0) res.correct = false;

  const std::vector<Span> spans = log.take();
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, double> self_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_us[spans[i].name] += static_cast<double>(self[i]) / 1e3;
  }
  const auto bundles = static_cast<double>(std::max<std::uint64_t>(1, t.tally.ok));
  const double rowmin = self_us["par.monge_row_minima"] / bundles;
  const double stair = self_us["par.staircase_row_minima"] / bundles;
  const double tube = self_us["par.tube_maxima"] / bundles;
  const double fork = self_us["pram.parallel_branches"] / bundles;
  res.set("kernel.rowmin_us", rowmin, "us");
  res.set("kernel.staircase_us", stair, "us");
  res.set("kernel.tube_us", tube, "us");
  res.set("pram.charged_time", static_cast<double>(ref.time), "steps");
  res.set("pram.charged_work", static_cast<double>(ref.work), "ops");
  res.set("exec.pool_batches_per_op", static_cast<double>(s1.batches - s0.batches) / bundles, "count");
  res.set("exec.chunks_per_op", (lane_sum(s1, true) - lane_sum(s0, true)) / bundles, "count");
  res.set("exec.submit_wait_us_per_op",
          static_cast<double>(s1.submit_wait_us - s0.submit_wait_us) / bundles, "us");
  res.set("exec.lane_utilization",
          (lane_sum(s1, false) - lane_sum(s0, false)) /
              (static_cast<double>(lanes) * t.seconds * 1e6),
          "ratio");
  res.set("proc.cpu_us_per_op", cpu_us / bundles, "us");
  res.set("env.steal_ms", tsteal, "ms");
  // The 16 row searches overlap on the lanes, so their summed self time
  // can exceed the bundle's wall time by up to the lane count.
  res.set("self.kernel_us", rowmin + stair + tube, "us");
  res.set("self.exec_us", fork, "us");
  res.set("self.sum_us", rowmin + stair + tube + fork, "us");
  res.set("self.reference_us", p50, "us");
  res.set("trace.overhead_us", traced_p50 - p50, "us");
  info("self time per bundle (us)", "rowmin=" + num(rowmin) + " staircase=" + num(stair) +
                                        " tube=" + num(tube) + " fork/join=" + num(fork) +
                                        " sum=" + num(rowmin + stair + tube + fork) +
                                        " vs latency_p50_us=" + num(p50));
  if (!opt.out_dir.empty()) {
    write_spans(opt.out_dir + "/kernel_batch-seed" + std::to_string(opt.seed) + ".json", spans);
  }
  return res;
}

}  // namespace perfbench
