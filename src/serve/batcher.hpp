// Query batcher: turns one admitted batch of heterogeneous requests into
// the fewest engine runs that answer all of them.
//
// Coalescing rules (the tentpole's point -- see docs/serving.md):
//   * row queries against the same registered array and direction become
//     ONE batched row-search invocation (par/monge_rowminima.hpp's
//     *_rows entry points), so B queries cost one recursive decomposition
//     over B rows instead of B independent scans;
//   * staircase row queries group the same way through the row-selected
//     Theorem-2.3 view;
//   * tube point queries group by (d, e) pair and share per-slice row
//     searches (par/tube_maxima.hpp's *_points entry points);
//   * geometric application queries (largest_rect, empty_rect,
//     polygon_neighbors) group by op and fan out as parallel branches of
//     one Machine; string_edit groups run the DP once per pair.
// All groups of a batch are then pushed into the exec engine as ONE
// submission (exec::parallel_jobs).
//
// Planning: each group consults the execution planner (src/plan) for the
// cheapest of its op class's routes (kOpClasses, plan/cost_model.hpp) --
// a brute scan of exactly the queried cells, the sequential SMAWK-family
// solver, or the parallel kernel.  All routes return the leftmost
// optimum, so the chosen algorithm is invisible in the response bytes; a
// disabled planner takes each class's last route.
//
// Correctness contract: outcome[i] depends only on request i -- never on
// what else shared its batch or which profile is loaded -- so responses
// are bit-identical whether coalescing or planning is on or off.
// Per-request failures (bad fields, unknown arrays) are per-request
// errors; a group-level algorithm failure marks only that group's
// members, never its batch siblings.
//
// The `explain` op ({"op":"explain","query":{...}}) answers with the
// inner query's plan, its predicted cost, the measured wall time of one
// uncached run, and the inner outcome.  Like `stats` it is
// observability output: never cached, bytes may vary run to run.
//
// Resilience (docs/robustness.md): a group whose kernel raises a
// fault::InjectedFault -- the one exception class the stack treats as
// transient -- is retried with exponential backoff, bounded by
// max_retries and by the tightest member deadline (plus the optional
// per-op timeout).  Repeated failures open a circuit breaker that runs
// the next `breaker_cooldown` groups degraded: sequential-SMAWK plans
// under a SerialScope, which never touch the pool (so pool-side
// injections cannot reach them) and produce the same leftmost-optimum
// bytes as every other variant.  Exhausted retries answer a
// `fault_injected` error.  Since all variants are byte-identical,
// neither retries nor degradation can change a response.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "plan/planner.hpp"
#include "pram/machine.hpp"

namespace pmonge::index {
class Index;
class IndexManager;
}
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace pmonge::serve {

struct BatchOutcome {
  bool ok = false;
  // Canonical result bytes, valid when ok: a handler appends its result
  // once, and these bytes go both to the cache and into the response.
  std::string result;
  std::string error;  // valid when !ok
};

/// The registered arrays a query reads (OpSpec::operands), resolved from
/// the registry; a slot stays null when its field is missing, malformed
/// or names no array.
using Operands = std::array<std::shared_ptr<const ArrayEntry>, 2>;
Operands resolve_operands(const Request& req, const Registry& reg);

/// What an inline caller already knows about a request at admission.
struct Admitted {
  Operands operands;          // resolved once, for pricing and the run
  bool probe_missed = false;  // the admission cache probe ran and missed
};

/// Retry / timeout / circuit-breaker knobs (ServiceOptions embeds one).
struct ResilienceOptions {
  std::size_t max_retries = 3;       // retry attempts per group
  std::int64_t op_timeout_ms = -1;   // per-group execution budget; -1 none
  std::size_t breaker_threshold = 5; // consecutive failures that open it
  std::size_t breaker_cooldown = 32; // groups run degraded while open
};

/// Live resilience counters (stats `resilience` section).
struct ResilienceSnapshot {
  std::uint64_t retries = 0;         // group-level retry attempts
  std::uint64_t batch_retries = 0;   // batch-dispatch resubmissions
  std::uint64_t degraded_groups = 0; // groups answered degraded
  std::uint64_t breaker_opens = 0;
  std::uint64_t fault_errors = 0;    // groups answered fault_injected
  bool breaker_open = false;
};

namespace detail {
/// A request slot inside one coalesced group.
struct BatchMember {
  const Request* req;
  BatchOutcome* out;
  ServeClock::time_point deadline = kNoDeadline;
  const Operands* operands = nullptr;  // resolved at admission, else null
};
}  // namespace detail

/// What `req` would touch, in cost-model units (batch = 1), given its
/// first registered operand (null when the op has none or it is not
/// registered): a submatrix query's region (the whole operand when the
/// region is malformed), another op's operand, else the sizes of the
/// inline operands.  An op whose operand is unknown yields a zero shape
/// (predicts ~nothing; the query itself then fails normally).  Shared by
/// admission control, group planning and the explain op.
plan::QueryShape query_shape(const Request& req, const ArrayEntry* operand);

class Batcher {
 public:
  Batcher(Registry& registry, ShardedLruCache& cache, ServiceMetrics& metrics,
          const plan::Planner& planner, index::IndexManager& indexes,
          pram::Model model, bool coalesce, ResilienceOptions resilience = {})
      : registry_(registry),
        cache_(cache),
        metrics_(metrics),
        planner_(planner),
        indexes_(indexes),
        model_(model),
        coalesce_(coalesce),
        res_(resilience) {}

  /// Answer every query request in `reqs` (all must be query-plane ops)
  /// into `out`, which aligns with `reqs`; every request gets exactly one
  /// outcome.  `deadlines` (absolute, kNoDeadline sentinel), when
  /// non-empty, aligns with `reqs` and bounds that request's retry
  /// budget.  `admitted`, when non-empty, aligns with `reqs`: operands
  /// resolved at admission, and whether the admission cache probe
  /// missed, in which case run() counts that miss instead of probing
  /// again.  Its own bookkeeping lives in per-thread scratch, so a warm
  /// run allocates only the outcomes' bytes and what the kernels need.
  void run(std::span<const Request> reqs,
           std::span<const ServeClock::time_point> deadlines,
           std::span<BatchOutcome> out,
           std::span<const Admitted> admitted = {});

  ResilienceSnapshot resilience() const;

 private:
  void dispatch_group(std::span<detail::BatchMember> ms);
  void dispatch_group_once(std::span<detail::BatchMember> ms, bool degraded);
  plan::Plan plan_for(const plan::QueryShape& shape, bool degraded) const;
  std::shared_ptr<index::Index> index_for(const Request& req,
                                          const ArrayEntry& operand,
                                          std::size_t batch) const;
  void run_explain(const Request& req, BatchOutcome& out);
  bool breaker_open() const;
  void note_failure();
  void note_group_done(bool degraded);

  Registry& registry_;
  ShardedLruCache& cache_;
  ServiceMetrics& metrics_;
  const plan::Planner& planner_;
  index::IndexManager& indexes_;
  pram::Model model_;
  bool coalesce_;
  ResilienceOptions res_;

  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> batch_retries_{0};
  std::atomic<std::uint64_t> degraded_groups_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> fault_errors_{0};
  std::atomic<std::uint64_t> consecutive_failures_{0};
  // > 0: open, counts the degraded groups remaining before it re-closes.
  std::atomic<std::int64_t> breaker_budget_{0};
};

}  // namespace pmonge::serve
