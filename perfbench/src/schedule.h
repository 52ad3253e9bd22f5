// Seeded open-loop arrivals and the max_rps rate ladder.
//
// An open loop sends each request at its due time whatever happened to
// earlier ones, so a stall shows as latency on every later request instead
// of silently slowing the sender. Latency is timed from the due time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct Arrival {
  double due_s = 0;        // offset from the start of the phase
  std::uint32_t matrix = 0; // index into the workload's read set
  std::uint32_t x = 0;      // index into that matrix's right-hand-side pool
};

/// Poisson arrivals at `rate` per second over [0, seconds): exponential
/// gaps, each request on a uniformly drawn matrix and right-hand side.
/// The same arguments give the same schedule on every platform (the
/// generator and the transforms are spelled out, not taken from <random>
/// distributions, whose output the standard leaves unspecified).
std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double rate,
                                        double seconds,
                                        std::uint32_t n_matrices,
                                        std::uint32_t n_x);

/// Fixed geometric rate ladder: rung k offers base * step^k requests/s.
/// A step of 1.05 resolves a 10% change in capacity by two rungs.
struct Ladder {
  double base = 100;
  double step = 1.05;
  int rungs = 64;

  double rate(int k) const;
};

/// What one open-loop trial at a fixed rate observed.
struct Trial {
  std::size_t attempted = 0;
  std::size_t ok = 0;      // verified answers
  double p99_ms = 0;       // exact, over the trial's samples
  double lag_head_ms = 0;  // median generator lag, first quarter of sends
  double lag_tail_ms = 0;  // median generator lag, last quarter of sends
  bool aborted = false;    // stopped early: an answer took kAbortFactor x
                           // the p99 limit, so the backlog was runaway
};

/// A trial stops sending once one answer takes this many times the p99
/// limit; it fails, and is not repeated. Bounds the time an overloaded
/// trial spends draining its backlog.
inline constexpr double kAbortFactor = 4;

/// The lag the generator may gain across one trial, as a share of the p99
/// limit, before the backlog counts as growing.
inline constexpr double kLagGrowthShare = 0.25;

/// A trial passes when it ran to the end, every request was answered and
/// verified, its p99 meets `p99_limit_ms`, and generator lag did not grow.
bool trial_passes(const Trial& t, double p99_limit_ms);

struct LadderResult {
  int rung = -1;     // highest passing rung; -1 when rung 0 failed
  double rate = 0;   // ladder.rate(rung)
  int probes = 0;    // trials run
};

/// Binary search for the highest passing rung, assuming a rung passes
/// whenever a higher one does. `probe` runs one trial at the given rate. A
/// rung fails only when a second trial fails too, unless the first was
/// aborted: on a shared host one descheduled millisecond can fail a trial,
/// and a binary search never revisits the half it discards.
LadderResult search_ladder(const Ladder& ladder, double p99_limit_ms,
                           const std::function<Trial(double rate)>& probe);

} // namespace perfbench
