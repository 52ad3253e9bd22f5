#include "env.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "kernels/cpu_features.h"

namespace perfbench {

HostInfo host_info() {
  HostInfo h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (h.nproc < 1) h.nproc = 1;
#ifdef _SC_LEVEL2_CACHE_SIZE
  h.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  h.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  if (h.l2_bytes < 0) h.l2_bytes = 0;
  if (h.l3_bytes < 0) h.l3_bytes = 0;
  h.isa = bro::kernels::simd_isa_name(bro::kernels::active_simd_isa());
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is in KiB
}

void pin_openmp_default(char** argv) {
  const char* cur = std::getenv("OMP_NUM_THREADS");
  if (cur != nullptr && std::strcmp(cur, "1") == 0) return;
  setenv("OMP_NUM_THREADS", "1", 1);
  execv("/proc/self/exe", argv);
  std::cerr << "perfbench: re-exec with OMP_NUM_THREADS=1 failed: "
            << std::strerror(errno) << '\n';
  std::exit(2);
}

} // namespace perfbench
