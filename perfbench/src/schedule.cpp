#include "schedule.h"

#include <cmath>
#include <random>

namespace perfbench {

namespace {

double unit_uniform(std::mt19937_64& rng) {
  return double(rng() >> 11) * 0x1.0p-53; // [0, 1)
}

} // namespace

std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double rate,
                                        double seconds,
                                        std::uint32_t n_matrices,
                                        std::uint32_t n_x) {
  std::vector<Arrival> out;
  if (rate <= 0 || seconds <= 0 || n_matrices == 0 || n_x == 0) return out;
  std::mt19937_64 rng(seed);
  double t = 0;
  for (;;) {
    t += -std::log1p(-unit_uniform(rng)) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    a.matrix = static_cast<std::uint32_t>(rng() % n_matrices);
    a.x = static_cast<std::uint32_t>(rng() % n_x);
    out.push_back(a);
  }
  return out;
}

double Ladder::rate(int k) const { return base * std::pow(step, k); }

bool trial_passes(const Trial& t, double p99_limit_ms) {
  return !t.aborted && t.attempted > 0 && t.ok == t.attempted &&
         t.p99_ms <= p99_limit_ms &&
         t.lag_tail_ms - t.lag_head_ms <= kLagGrowthShare * p99_limit_ms;
}

LadderResult search_ladder(const Ladder& ladder, double p99_limit_ms,
                           const std::function<Trial(double rate)>& probe) {
  LadderResult r;
  const auto passes = [&](int k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      ++r.probes;
      const Trial t = probe(ladder.rate(k));
      if (trial_passes(t, p99_limit_ms)) return true;
      if (t.aborted) return false;
    }
    return false;
  };
  int lo = -1, hi = ladder.rungs; // lo passes (or is below the ladder), hi fails
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid))
      lo = mid;
    else
      hi = mid;
  }
  r.rung = lo;
  r.rate = ladder.rate(lo);
  return r;
}

} // namespace perfbench
