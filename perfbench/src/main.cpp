// pmonge-perfbench: the repository benchmark (see ../README.md).
//
//   pmonge-perfbench --workload hot_hits|burst_mix|kernel_batch --seed N
//                    --seconds S --trace 0|1 --serve-bin PATH
//                    [--burst-rate R] [--out-dir DIR]
//
// Prints report lines ("# ...") and, last, one JSON result line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every output checked out, 1 otherwise, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pmonge-perfbench: " << why << "\n"
            << "usage: pmonge-perfbench --workload hot_hits|burst_mix|kernel_batch "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH "
               "[--burst-rate R] [--out-dir DIR]\n";
  std::exit(2);
}

double number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= 0)) usage("bad " + flag + " \"" + text + "\"");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = number(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--burst-rate") {
      opt.burst_rate = number(flag, value);
    } else if (flag == "--serve-bin") {
      opt.serve_bin = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (opt.seconds < 1) usage("--seconds must be at least 1");
  if (opt.burst_rate <= 0) usage("--burst-rate must be positive");
  if (opt.workload != "kernel_batch" && opt.serve_bin.empty()) {
    usage("--serve-bin is required for the TCP workloads");
  }

  perfbench::Result res;
  try {
    if (opt.workload == "hot_hits") {
      res = perfbench::run_hot_hits(opt);
    } else if (opt.workload == "burst_mix") {
      res = perfbench::run_burst_mix(opt);
    } else if (opt.workload == "kernel_batch") {
      res = perfbench::run_kernel_batch(opt);
    } else {
      usage("unknown workload \"" + opt.workload + "\"");
    }
  } catch (const std::exception& e) {
    std::cerr << "pmonge-perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  if (opt.trace) {
    // Every per-layer metric, and only those; a layer the workload does
    // not exercise reads 0.
    std::map<std::string, perfbench::Metric> layer;
    for (const auto& lm : perfbench::layer_metrics()) {
      const auto it = res.metrics.find(lm.name);
      layer[lm.name] = perfbench::Metric{it == res.metrics.end() ? 0.0 : it->second.value, lm.unit};
    }
    res.metrics = std::move(layer);
  }
  std::cout << res.json() << std::endl;
  return res.correct ? 0 : 1;
}
