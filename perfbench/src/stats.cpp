#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

} // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t k = rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + std::ptrdiff_t(k),
                   samples.end());
  return samples[k];
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank(n, p);
}

double tail_percentile(std::size_t n) {
  for (double p : {99.0, 90.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 50;
}

} // namespace perfbench
