// PRAM simulator with charged-step cost accounting.
//
// The paper's results are stated for CREW and CRCW PRAMs.  Neither exists
// as hardware, so this module *simulates* them: algorithms are expressed in
// terms of synchronous parallel primitives, each primitive executes on the
// host (concurrently, via the src/exec thread-pool engine) and charges its
// textbook parallel depth and work to a meter.  The meter's three outputs -- parallel time (steps),
// work (processor-steps) and peak concurrent processors -- are exactly the
// quantities the paper's Tables 1.1-1.3 bound, so measured series can be
// compared against the claimed shapes on any host.
//
// Model enforcement: the simulator does not merely *trust* an algorithm's
// claimed model.  Scatter writes performed under CREW are checked for
// write conflicts, and COMMON-CRCW writes are checked for disagreeing
// concurrent values; violations throw pmonge::ModelViolation, and tests
// assert both that legal algorithms never trip the checks and that rigged
// conflicting programs do.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/scratch.hpp"
#include "support/check.hpp"

namespace pmonge::pram {

/// PRAM submodel.  Concurrent reads are always allowed (all models here
/// are at least CREW); the submodel governs concurrent *writes*.
enum class Model {
  CREW,            // exclusive write: concurrent writes are a model violation
  CRCW_COMMON,     // concurrent writes allowed iff all writers agree
  CRCW_ARBITRARY,  // one arbitrary writer wins (simulator: lowest proc id)
  CRCW_PRIORITY,   // lowest-numbered processor wins
  CRCW_COMBINING,  // writes combined with an associative operator
};

const char* model_name(Model m);
bool is_crcw(Model m);

/// Charged-cost accumulator.
///
/// time  -- parallel steps (the paper's "time")
/// work  -- total operations across all processors (processor-time product
///          actually consumed, i.e. sum over steps of active processors)
/// peak_processors -- maximum processors active in any single step
struct CostMeter {
  std::uint64_t time = 0;
  std::uint64_t work = 0;
  std::uint64_t peak_processors = 0;

  /// Charge `steps` synchronous steps with `procs` active processors.
  /// `ops` defaults to steps*procs; pass it explicitly when activity decays
  /// geometrically (e.g. a reduction tree does n + n/2 + ... ~ 2n ops over
  /// lg n steps, not n lg n).  Inline: every primitive charges.
  void charge(std::uint64_t steps, std::uint64_t procs) {
    charge(steps, procs, steps * procs);
  }
  void charge(std::uint64_t steps, std::uint64_t procs, std::uint64_t ops) {
    time += steps;
    work += ops;
    peak_processors = std::max(peak_processors, procs);
  }

  /// Brent's theorem: running this computation on p physical processors
  /// takes at most work/p + time steps.  This is how the simulator reports
  /// the paper's processor-count columns (e.g. n/lglg n processors).
  double brent_time(std::uint64_t p) const;

  void reset();
};

/// A simulated PRAM.  Cheap to construct; algorithms take `Machine&` and
/// express all array touches through the primitives in primitives.hpp so
/// the meter stays honest.
class Machine {
 public:
  explicit Machine(Model model) : model_(model) {}

  Model model() const { return model_; }
  CostMeter& meter() { return meter_; }
  const CostMeter& meter() const { return meter_; }

  /// Run `k` independent branches that the algorithm executes in parallel
  /// (e.g. row minima of many disjoint subarrays).  Each branch runs on a
  /// fresh sub-machine of the same model; afterwards the parent meter
  /// advances by the *maximum* branch time, the *sum* of branch work, and
  /// peak processors equal to the sum of branch peaks (all branches are
  /// concurrently active in the simulated machine).
  ///
  /// `work` predicts the charged work of all k branches together -- the
  /// fork's oracle for the engine's one granularity rule
  /// (exec/parallel.hpp): at most exec::kForkWork runs the branches in
  /// place on the calling thread, more splits them into chunks of about
  /// that much work on the host pool.  Each branch owns its sub-machine,
  /// so no meter is ever charged from two threads, and max / sum / sum
  /// do not depend on the order the sub-meters fold in -- charged totals
  /// are identical at every PMONGE_THREADS setting and every prediction.
  /// Branch bodies must write only branch-private state (disjoint output
  /// slots); that is the same independence the simulated machine already
  /// required of them.
  template <class F>
  void parallel_branches(std::size_t k, std::uint64_t work, F&& run_branch) {
    fork(k, exec::task_grain(k, work), run_branch);
  }

  /// Unpredicted fork: every branch is its own host task.  For callers
  /// that vouch each branch is a substantial computation (a batch of
  /// whole searches); library fork sites pass a prediction instead.
  template <class F>
  void parallel_branches(std::size_t k, F&& run_branch) {
    fork(k, 1, run_branch);
  }

 private:
  /// Folds sub-meters into the parallel composition's cost.
  struct BranchCost {
    std::uint64_t max_time = 0, sum_work = 0, sum_peak = 0;
    void add(const CostMeter& c) {
      max_time = std::max(max_time, c.time);
      sum_work += c.work;
      sum_peak += c.peak_processors;
    }
  };

  template <class F>
  void fork(std::size_t k, std::size_t grain, F& run_branch) {
    if (k == 0) return;
    BranchCost cost;
    if (exec::runs_in_place(k, grain)) {
      // One sub-machine at a time, folded as it retires: no allocation.
      for (std::size_t b = 0; b < k; ++b) {
        Machine sub(model_);
        run_branch(b, sub);
        cost.add(sub.meter_);
      }
    } else {
      // Each branch charges a sub-machine on its executing thread's
      // stack and stores the meter once into its own slot of this
      // frame's scratch, which outlives the join: no two lanes write
      // one cache line on every charge.
      exec::ScratchScope scratch;
      auto meters = exec::scratch_vector<CostMeter>(k);
      exec::parallel_for(k, grain, [&](std::size_t b) {
        Machine sub(model_);
        run_branch(b, sub);
        meters[b] = sub.meter_;
      });
      for (const CostMeter& c : meters) cost.add(c);
    }
    meter_.time += cost.max_time;
    meter_.work += cost.sum_work;
    meter_.peak_processors = std::max(meter_.peak_processors, cost.sum_peak);
  }

  Model model_;
  CostMeter meter_;
};

}  // namespace pmonge::pram
