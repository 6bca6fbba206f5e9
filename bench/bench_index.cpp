// Query-index bench (docs/indexing.md): what one build buys.
//
// For square Monge operands swept to --max, measures
//   * build cost (ms) and memory of the submatrix index,
//   * indexed submatrix-query p50 vs the direct one-SMAWK-pass solver
//     (and the brute scan at sizes where it is not absurd),
//   * the break-even query count: how many submatrix queries amortize
//     the build (build_ms / per-query saving) -- the number a capacity
//     planner compares against a workload's expected query volume.
//
// Exit gate: at EVERY swept size n >= 256 the indexed lookup p50 must
// beat the direct SMAWK solve -- the index's whole reason to exist.
// Exit 1 otherwise.  Records carry the host's CPU model, core count and
// build type, so a committed BENCH_index.json says where it was measured.
//
//   --max N        largest operand side        (default 4096)
//   --queries N    queries per timed batch     (default 64)
//   --reps N       median-of-N repetitions     (default 5)
//   --warmup N     throwaway runs per config   (default 1)
//   --json[=PATH]  machine-readable records    (BENCH_index.json)
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "index/index.hpp"
#include "monge/generators.hpp"
#include "serve/registry.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

#ifndef PMONGE_BUILD_TYPE
#define PMONGE_BUILD_TYPE "unknown"
#endif

namespace {

using pmonge::index::Index;
using pmonge::index::RegionOpt;
using pmonge::serve::ArrayEntry;

struct Region {
  std::size_t r0, r1, c0, c1;
};

std::vector<Region> make_regions(std::size_t n, std::size_t count,
                                 std::uint64_t seed) {
  pmonge::Rng rng(seed);
  std::vector<Region> rs;
  rs.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto c = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto d = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    rs.push_back({std::min(a, b), std::max(a, b), std::min(c, d),
                  std::max(c, d)});
  }
  return rs;
}

/// Fold results into a sink so the optimizer cannot drop the queries.
volatile std::int64_t g_sink = 0;

/// Smallest swept size; the exit gate covers every swept size.
constexpr std::size_t kMinN = 256;

}  // namespace

int main(int argc, char** argv) {
  pmonge::Cli cli(argc, argv);
  const auto max_n = static_cast<std::size_t>(cli.get_int("max", 4096));
  const auto queries = static_cast<std::size_t>(cli.get_int("queries", 64));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const auto warmup = static_cast<std::size_t>(cli.get_int("warmup", 1));
  auto records =
      pmonge::bench::JsonRecords::from_cli(cli, "index", "BENCH_index.json");

  const std::string host = pmonge::bench::cpu_model();
  const auto nproc =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  pmonge::bench::print_header(
      "submatrix query: index lookup vs direct solve");
  std::cout << "host: " << host << ", nproc " << nproc << ", build "
            << PMONGE_BUILD_TYPE << "\n";
  pmonge::Table table({"n", "build ms", "memory MB", "index us/q",
                       "smawk us/q", "brute us/q", "speedup",
                       "break-even q"});
  std::vector<std::size_t> gate_failures;
  std::size_t gated = 0;
  for (const std::size_t n : pmonge::bench::pow2_sweep(kMinN, max_n)) {
    pmonge::Rng rng(42);
    ArrayEntry e;
    e.kind = ArrayEntry::Kind::Monge;
    e.data = pmonge::monge::random_monge(n, n, rng);
    const auto entry = std::make_shared<const ArrayEntry>(std::move(e));
    const auto regions = make_regions(n, queries, n * 7 + 1);

    std::unique_ptr<Index> idx;
    const double build_ms =
        pmonge::bench::timed_median(
            [&] {
              idx = std::make_unique<Index>(entry);
              idx->build();
            },
            0, std::max<std::size_t>(1, reps / 2))
            .median_ms;

    const auto run_indexed = [&] {
      for (std::size_t q = 0; q < regions.size(); ++q) {
        const Region& g = regions[q];
        const RegionOpt r =
            idx->submatrix_opt(q % 2 == 1, g.r0, g.r1, g.c0, g.c1);
        g_sink = g_sink + r.value;
      }
    };
    const auto run_direct = [&](pmonge::plan::Algo algo) {
      for (std::size_t q = 0; q < regions.size(); ++q) {
        const Region& g = regions[q];
        const RegionOpt r = pmonge::index::submatrix_direct(
            *entry, q % 2 == 1, algo, g.r0, g.r1, g.c0, g.c1);
        g_sink = g_sink + r.value;
      }
    };

    const double index_ms =
        pmonge::bench::timed_median(run_indexed, warmup, reps).median_ms;
    const double smawk_ms =
        pmonge::bench::timed_median(
            [&] { run_direct(pmonge::plan::Algo::Sequential); }, warmup, reps)
            .median_ms;
    // Brute touches every region cell; past 512 it is minutes per batch.
    double brute_ms = -1;
    if (n <= 512) {
      brute_ms = pmonge::bench::timed_median(
                     [&] { run_direct(pmonge::plan::Algo::Brute); }, warmup,
                     reps)
                     .median_ms;
    }

    const double index_us = index_ms * 1000.0 / static_cast<double>(queries);
    const double smawk_us = smawk_ms * 1000.0 / static_cast<double>(queries);
    const double saving_us = smawk_us - index_us;
    const double break_even =
        saving_us > 0 ? build_ms * 1000.0 / saving_us : -1;
    table.add_row(
        {pmonge::Table::num(n), pmonge::Table::fixed(build_ms, 2),
         pmonge::Table::fixed(
             static_cast<double>(idx->memory_bytes()) / 1e6, 2),
         pmonge::Table::fixed(index_us, 2), pmonge::Table::fixed(smawk_us, 2),
         brute_ms < 0 ? "-"
                      : pmonge::Table::fixed(
                            brute_ms * 1000.0 / static_cast<double>(queries),
                            2),
         pmonge::Table::fixed(index_us > 0 ? smawk_us / index_us : 0, 2),
         break_even < 0 ? "-" : pmonge::Table::num(static_cast<std::size_t>(
                                    break_even + 1))});

    ++gated;
    if (index_us >= smawk_us) gate_failures.push_back(n);

    pmonge::serve::Json::Obj r;
    r["op"] = "submatrix";
    r["rows"] = n;
    r["cols"] = n;
    r["batch"] = queries;
    r["build_ms"] = build_ms;
    r["index_us_per_query"] = index_us;
    r["smawk_us_per_query"] = smawk_us;
    if (brute_ms >= 0) {
      r["brute_us_per_query"] = brute_ms * 1000.0 /
                                static_cast<double>(queries);
    }
    r["break_even_queries"] =
        break_even < 0 ? -1
                       : static_cast<std::int64_t>(break_even + 1);
    r["index_nodes"] = idx->nodes();
    r["index_memory_bytes"] = idx->memory_bytes();
    r["host"] = host;
    r["nproc"] = nproc;
    r["build_type"] = PMONGE_BUILD_TYPE;
    records.add(std::move(r));
  }
  table.print(std::cout);
  if (gate_failures.empty()) {
    std::cout << "exit gate at every swept n >= " << kMinN << " (" << gated
              << " sizes): indexed lookup beats the direct SMAWK solve\n";
  } else {
    std::cout << "exit gate: indexed lookup did NOT beat the direct SMAWK "
                 "solve at n =";
    for (const std::size_t n : gate_failures) std::cout << " " << n;
    std::cout << " -- REGRESSION\n";
  }
  records.write();
  return gate_failures.empty() ? 0 : 1;
}
