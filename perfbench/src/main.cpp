// perfbench: the end-to-end benchmark of the BRO SpMV stack.
//
//   perfbench --workload solve|serve-hot|wire-churn --seed N
//             --seconds S --trace 0|1
//
// Prints a header (host, threads, inputs), one line per metric with its
// unit, and as the last line a JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any timed answer failed its check, so a wrong kernel cannot
// post a number, and 2 on bad arguments.
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "env.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  std::exit(2);
}

std::string json_number(double v) {
  std::ostringstream os; // every digit; whole numbers print without a point
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

} // namespace

int main(int argc, char** argv) {
  perfbench::pin_openmp_default(argv);

  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--setup-only") {
        cfg.setup_only = std::stoi(v) != 0;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0)) usage("--seconds must be > 0");
  if (cfg.setup_only) {
    try {
      perfbench::run_setup_only(cfg);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << '\n';
      return 1;
    }
    return 0;
  }
  cfg.host = perfbench::host_info();

  std::cout << "perfbench workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace << '\n'
            << "host nproc=" << cfg.host.nproc << " simd=" << cfg.host.isa
            << " L2=" << cfg.host.l2_bytes << "B L3=" << cfg.host.l3_bytes
            << "B omp_default_threads=1\n";

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    std::cout << "metric " << std::left << std::setw(30) << m.name << ' '
              << std::setprecision(6) << m.value << ' ' << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ')';
    std::cout << '\n';
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      report.correct = false;
      continue;
    }
    json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  if (!report.correct)
    std::cerr << "perfbench: a check failed (" << report.failed
              << " of " << report.attempted << " answers wrong or missing)\n";
  std::cout << json.str() << std::endl;
  return report.correct ? 0 : 1;
}
