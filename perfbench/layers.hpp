// The traced run: per-layer numbers for one workload.
//
// Spans are taken here, around calls into each layer's public functions,
// and counts are read from the obs hub the program already exports
// (harness.wall_ns.*, dram.cmd.*, mem.skip_ticks, mem.scheduler_swaps,
// advisor.*). The workload's own layers are measured for the whole run;
// the layers it never calls are measured once on a small fixed panel, so
// every traced run reports every per-layer metric (README.md lists which
// layer belongs to which workload).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct TracedResult {
  Metrics metrics;
  OpLedger ledger;
};

/// Runs the traced measurement of `workload` for about `seconds` seconds.
/// Every traced op is checked against its untraced twin: tracing must not
/// move a single simulated statistic or advisor answer.
TracedResult traced_run(const std::string& workload,
                        const WorkloadOptions& opt, double seconds);

}  // namespace perfbench
