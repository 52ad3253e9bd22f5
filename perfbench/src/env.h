// Host facts for the run header, and the process-level thread budget.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  int nproc = 1;
  long l2_bytes = 0; // 0 when the C library does not report it
  long l3_bytes = 0;
  std::string isa; // active SIMD ISA of the decode kernels
};

HostInfo host_info();

/// Peak resident set of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// Make OpenMP default to one thread in every thread of this process,
/// including the serving layer's dispatch threads, which the benchmark cannot
/// configure from outside: when OMP_NUM_THREADS is not "1", set it and
/// re-execute the binary so the OpenMP runtime reads it at start-up.
/// Kernels that should run wider ask for it explicitly per call site.
void pin_openmp_default(char** argv);

} // namespace perfbench
