// Unit tests for the benchmark's own parts: exact percentiles, the
// seeded open-loop schedule, the max_rps ladder rule and span self times.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOverRawSamples) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0); // 1..100
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, NeverAboveTheObservedMaximum) {
  // A factor-2 bucket would report 2.0 for the p99 of these samples.
  const std::vector<double> v = {1.01, 1.02, 1.03, 1.57};
  EXPECT_EQ(percentile(v, 99), 1.57);
  EXPECT_LE(percentile(v, 99), *std::max_element(v.begin(), v.end()));
}

TEST(Percentile, TailChoiceKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
}

TEST(Schedule, DeterministicPerSeed) {
  const auto a = open_loop_schedule(7, 500, 2.0, 5, 4);
  const auto b = open_loop_schedule(7, 500, 2.0, 5, 4);
  const auto c = open_loop_schedule(8, 500, 2.0, 5, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].matrix, b[i].matrix);
    EXPECT_EQ(a[i].x, b[i].x);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].due_s != c[i].due_s;
  EXPECT_TRUE(differs);
}

TEST(Schedule, RateWindowAndRanges) {
  const auto a = open_loop_schedule(3, 1000, 4.0, 3, 2);
  // Poisson count: mean 4000, sd ~63.
  EXPECT_GT(a.size(), 3700u);
  EXPECT_LT(a.size(), 4300u);
  double prev = 0;
  for (const Arrival& r : a) {
    EXPECT_GT(r.due_s, prev);
    EXPECT_LT(r.due_s, 4.0);
    EXPECT_LT(r.matrix, 3u);
    EXPECT_LT(r.x, 2u);
    prev = r.due_s;
  }
  EXPECT_TRUE(open_loop_schedule(3, 0, 4.0, 3, 2).empty());
}

TEST(Ladder, PassRule) {
  Trial t;
  t.attempted = 100;
  t.ok = 100;
  t.p99_ms = 4.0;
  EXPECT_TRUE(trial_passes(t, 4.0));
  t.p99_ms = 4.01;
  EXPECT_FALSE(trial_passes(t, 4.0)); // latency limit
  t.p99_ms = 1.0;
  t.ok = 99;
  EXPECT_FALSE(trial_passes(t, 4.0)); // one miss fails the rung
  t.ok = 100;
  t.lag_head_ms = 0.1;
  t.lag_tail_ms = 0.1 + kLagGrowthShare * 4.0;
  EXPECT_TRUE(trial_passes(t, 4.0));
  t.lag_tail_ms += 0.01;
  EXPECT_FALSE(trial_passes(t, 4.0)); // backlog grows
  EXPECT_FALSE(trial_passes(Trial{}, 4.0)); // nothing attempted
  t.lag_tail_ms = t.lag_head_ms;
  EXPECT_TRUE(trial_passes(t, 4.0));
  t.aborted = true;
  EXPECT_FALSE(trial_passes(t, 4.0)); // runaway backlog, stopped early
}

TEST(Ladder, RungsResolveTenPercent) {
  const Ladder l{100, 1.05, 64};
  EXPECT_DOUBLE_EQ(l.rate(0), 100);
  EXPECT_NEAR(l.rate(2) / l.rate(0), 1.1025, 1e-12);
}

TEST(Ladder, BinarySearchFindsHighestPassingRung) {
  const Ladder l{100, 1.05, 64};
  for (double capacity : {50.0, 100.0, 333.0, 1000.0, 1e9}) {
    int probes = 0;
    const auto r = search_ladder(l, 10.0, [&](double rate) {
      ++probes;
      Trial t;
      t.attempted = t.ok = 1000;
      t.p99_ms = rate <= capacity ? 1.0 : 50.0;
      return t;
    });
    int want = -1;
    while (want + 1 < l.rungs && l.rate(want + 1) <= capacity) ++want;
    EXPECT_EQ(r.rung, want) << capacity;
    EXPECT_DOUBLE_EQ(r.rate, l.rate(want));
    EXPECT_EQ(r.probes, probes);
    EXPECT_LE(probes, 14); // 7 steps; a failing step runs twice
  }
}

TEST(Ladder, OneFailedTrialDoesNotFailARung) {
  const Ladder l{100, 1.05, 64};
  int calls = 0;
  const auto r = search_ladder(l, 10.0, [&](double rate) {
    Trial t;
    t.attempted = t.ok = 1000;
    // Capacity 1000/s; the very first trial fails by accident.
    t.p99_ms = (++calls == 1 || rate > 1000) ? 50.0 : 1.0;
    return t;
  });
  int want = -1;
  while (want + 1 < l.rungs && l.rate(want + 1) <= 1000) ++want;
  EXPECT_EQ(r.rung, want);
}

TEST(Ladder, AbortedTrialIsNotRepeated) {
  const Ladder l{100, 1.05, 64};
  int probes = 0;
  const auto r = search_ladder(l, 10.0, [&](double rate) {
    ++probes;
    Trial t;
    t.attempted = t.ok = 1000;
    t.p99_ms = 1.0;
    t.aborted = rate > 1000;
    return t;
  });
  EXPECT_EQ(r.probes, probes);
  EXPECT_LE(probes, 7); // every step decided by one trial
  EXPECT_DOUBLE_EQ(r.rate, l.rate(r.rung));
  EXPECT_LE(r.rate, 1000.0);
  EXPECT_GT(l.rate(r.rung + 1), 1000.0);
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t a,
          std::int64_t b) {
  Span s;
  s.name = "s";
  s.id = id;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  const Span root = span(1, 0, 0, 100);
  EXPECT_EQ(self_ns(root, {}), 100);
  // Overlapping children count once; a child sticking out is clipped.
  EXPECT_EQ(self_ns(root, {span(2, 1, 10, 30), span(3, 1, 20, 40),
                           span(4, 1, 90, 150)}),
            100 - 30 - 10);
  EXPECT_EQ(self_ns(root, {span(2, 1, -5, 200)}), 0);
}

TEST(Trace, NestedSelfTimesAddUpToTheRoot) {
  // root [0,100) > a [10,60) > b [20,30), c [40,50); root > d [70,80)
  std::vector<Span> s = {span(1, 0, 0, 100), span(2, 1, 10, 60),
                         span(3, 2, 20, 30), span(4, 2, 40, 50),
                         span(5, 1, 70, 80)};
  s[1].name = "a";
  s[2].name = "b";
  s[3].name = "b";
  s[4].name = "d";
  const auto self = self_times(s);
  EXPECT_EQ(self, (std::vector<std::int64_t>{40, 30, 10, 10, 10}));
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
  const auto by_name = self_seconds_by_name(s);
  EXPECT_DOUBLE_EQ(by_name.at("b"), 20e-9);
  EXPECT_DOUBLE_EQ(by_name.at("s"), 40e-9);
}

TEST(Trace, LayerCoverageCountsOnlyLayerSpansUnderTheRoot) {
  // request [0,100) > bench.gen_lag [0,10), serve.submit [10,20),
  // serve.get [20,80) > engine.execute [30,50), bench.verify [90,100);
  // [80,90) has no child. Another root's span does not count.
  std::vector<Span> s = {span(1, 0, 0, 100),  span(2, 1, 0, 10),
                         span(3, 1, 10, 20),  span(4, 1, 20, 80),
                         span(5, 4, 30, 50),  span(6, 1, 90, 100),
                         span(7, 0, 200, 300), span(8, 7, 200, 300)};
  const char* names[] = {"req",          "bench.gen_lag", "serve.submit",
                         "serve.get",    "engine.execute", "bench.verify",
                         "other",        "serve.get"};
  for (std::size_t i = 0; i < s.size(); ++i) s[i].name = names[i];
  // submit 10 + get self 40 + execute 20 = 70 of 100.
  EXPECT_DOUBLE_EQ(layer_coverage(s, "req"), 0.7);
  EXPECT_DOUBLE_EQ(layer_coverage(s, "other"), 1.0);
  EXPECT_EQ(layer_coverage(s, "missing"), 0);
}

TEST(Trace, ScopesNestPerThreadAndRecordOnlyWhenEnabled) {
  Tracer& t = tracer();
  t.clear();
  t.enable(false);
  { Scope off("off"); }
  EXPECT_TRUE(t.spans().empty());
  t.enable(true);
  {
    Scope outer("outer", 42);
    Scope inner("inner", 42);
  }
  t.enable(false);
  const auto s = t.spans();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_STREQ(s[0].name, "inner");
  EXPECT_STREQ(s[1].name, "outer");
  EXPECT_EQ(s[0].parent, s[1].id);
  EXPECT_EQ(s[1].parent, 0u);
  EXPECT_EQ(s[0].request, 42u);
  EXPECT_LE(s[1].start_ns, s[0].start_ns);
  EXPECT_GE(s[1].end_ns, s[0].end_ns);
  t.clear();
}

} // namespace
} // namespace perfbench
