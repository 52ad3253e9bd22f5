// The benchmark's three workloads. Each one sets up its inputs from the
// seed, measures for a fixed time and verifies every answer it times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "env.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  HostInfo host;
  bool setup_only = false; // set up, report the time, exit (setup_s)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note; // sample count, percentile used, ... (text output only)
};

struct RunReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true; // every check passed (answers, solutions, coverage)
};

/// "solve", "serve-hot", "wire-churn".
const std::vector<std::string>& workload_names();

/// Runs one workload. Untraced runs report the end-to-end metrics; traced
/// runs report the per-layer metrics. Throws on an unknown workload.
RunReport run_workload(const RunConfig& cfg);

/// Sets the workload up once and prints "setup_ready_ns <steady-clock ns>";
/// the parent run spawns this mode to time set-up from process start.
void run_setup_only(const RunConfig& cfg);

} // namespace perfbench
