// Exact order statistics over raw samples.
//
// Every timing the benchmark reports comes from here, never from a bucketed
// histogram: a bucket bound can lie above the largest value observed, and
// its resolution (a factor of two in the serving layer) hides a 10% change.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// The nearest-rank p-th percentile (0 < p <= 100) of `samples`: the
/// smallest sample with at least p percent of all samples at or below it.
/// Always one of the samples, so never above the maximum. 0 when empty.
double percentile(std::vector<double> samples, double p);

double median(const std::vector<double>& samples);

/// How many samples lie strictly above the nearest-rank p-th percentile
/// position, i.e. n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 99 and 90 that keeps at least ten samples beyond it; 50
/// when neither does.
double tail_percentile(std::size_t n);

} // namespace perfbench
