// Self-tests of the benchmark's own math: what every reported number means.
// Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "benchmath.hpp"

namespace perfbench {
namespace {

TEST(RelError, ScaledMaxDiffThatNoNonFiniteValuePasses) {
  const std::vector<double> ref = {4.0, -2.0, 0.5};
  const double scale = relErrorScale(ref);
  EXPECT_DOUBLE_EQ(scale, 4.0);
  EXPECT_DOUBLE_EQ(relErrorScale(std::vector<double>{0.25}), 1.0);
  EXPECT_DOUBLE_EQ(relError(ref, ref, scale), 0.0);
  EXPECT_DOUBLE_EQ(relError(std::vector<double>{4.0, -1.0, 0.5}, ref, scale),
                   0.25);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, kInf, -kInf}) {
    const std::vector<double> x = {bad, -2.0, 0.5};
    EXPECT_FALSE(relError(x, ref, scale) <= 1e-10) << bad;
    const std::vector<double> late = {4.0, -2.0, bad};
    EXPECT_FALSE(relError(late, ref, scale) <= 1e-10) << bad;
  }
  EXPECT_THROW(relError(ref, std::vector<double>{1.0}, 1.0),
               std::invalid_argument);
}

TEST(Geomean, MatchesClosedForm) {
  const std::vector<double> v = {1.0, 4.0, 16.0};
  EXPECT_DOUBLE_EQ(geomean(v), 4.0);
  EXPECT_DOUBLE_EQ(geomean(std::vector<double>{2.5}), 2.5);
}

TEST(Geomean, RejectsEmptyZeroAndInfinite) {
  EXPECT_THROW(geomean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(geomean(std::vector<double>{1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(geomean(std::vector<double>{1.0, kInf}), std::invalid_argument);
}

TEST(Quantile, LinearInterpolationLikePython) {
  // statistics.quantiles([1..5], n=4, method="inclusive") == [2, 3, 4].
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantileSorted(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantileSorted(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantileSorted(v, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(quantileSorted(std::vector<double>{1, 2}, 0.5), 1.5);
}

TEST(Quantile, FailuresAtTheTopReadInfinite) {
  const std::vector<double> v = {1, 2, 3, kInf};
  EXPECT_TRUE(std::isinf(quantileSorted(v, 0.99)));
  EXPECT_DOUBLE_EQ(quantileSorted(v, 0.0), 1.0);
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supportedTailPercentile(10000), 99.9);  // 10 beyond p99.9
  EXPECT_EQ(supportedTailPercentile(9999), 99.0);   // 9.999 beyond p99.9
  EXPECT_EQ(supportedTailPercentile(1000), 99.0);   // exactly 10 beyond
  EXPECT_EQ(supportedTailPercentile(999), 95.0);
  EXPECT_EQ(supportedTailPercentile(200), 95.0);
  EXPECT_EQ(supportedTailPercentile(100), 90.0);
  EXPECT_EQ(supportedTailPercentile(40), 75.0);
  EXPECT_EQ(supportedTailPercentile(20), 50.0);
  EXPECT_EQ(supportedTailPercentile(19), 0.0);
}

TEST(TailRule, SummaryReportsTheSupportedTail) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, quantileSorted(v, 0.90));
  EXPECT_DOUBLE_EQ(s.q25, 25.75);
  EXPECT_DOUBLE_EQ(s.q75, 75.25);
}

TEST(Stall, TickAlignedOutliersAreFlagged) {
  std::vector<double> v(200, 250e-6);  // 250 us solves
  for (const double ms : {4.0, 8.0, 12.0, 20.0}) v.push_back(ms * 1e-3);
  const TickStall t = tickStall(v, 250e-6);
  EXPECT_EQ(t.outliers, 4u);
  EXPECT_EQ(t.aligned, 4u);
  EXPECT_TRUE(t.flagged);
}

TEST(Stall, SlowButUnalignedSamplesAreNot) {
  std::vector<double> v(200, 250e-6);
  for (const double ms : {2.1, 5.9, 9.9, 13.9}) v.push_back(ms * 1e-3);
  const TickStall t = tickStall(v, 250e-6);
  EXPECT_EQ(t.outliers, 4u);
  EXPECT_EQ(t.aligned, 0u);
  EXPECT_FALSE(t.flagged);
}

TEST(Stall, TwoAlignedOutliersAreNotAPattern) {
  std::vector<double> v(200, 250e-6);
  v.push_back(4e-3);
  v.push_back(8e-3);
  EXPECT_FALSE(tickStall(v, 250e-6).flagged);
  // Fast series never count: 4x a 2 ms median is not "slow" at 4 ms.
  std::vector<double> w(200, 2e-3);
  w.push_back(4e-3);
  EXPECT_EQ(tickStall(w, 2e-3).outliers, 0u);
}

TEST(Stall, SlowShareCountsAboveTwiceTheMedian) {
  const std::vector<double> v = {1, 1, 1, 2, 3, 5};
  EXPECT_DOUBLE_EQ(slowShare(v, 1.0), 2.0 / 6.0);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  RequestTimes r{.due = 1.0, .sent = 1.5, .completed = 1.7, .ok = true};
  // A late send does not reset the clock: 0.7, not 0.2.
  EXPECT_DOUBLE_EQ(dueLatency(r), 0.7);
  r.ok = false;
  EXPECT_TRUE(std::isinf(dueLatency(r)));
}

TEST(OpenLoop, GeneratorLatenessIsTheWorstSendDelay) {
  const std::vector<RequestTimes> rs = {
      {.due = 0.0, .sent = 0.0001, .completed = 0.001, .ok = true},
      {.due = 0.1, .sent = 0.103, .completed = 0.104, .ok = true},
      {.due = 0.2, .sent = 0.2005, .completed = 0.201, .ok = true}};
  EXPECT_DOUBLE_EQ(maxLateness(rs), 0.103 - 0.1);
}

TEST(OpenLoop, BacklogIsWhatTheLastSendLeavesQueued) {
  const std::vector<RequestTimes> rs = {
      {.due = 0.0, .sent = 0.0, .completed = 0.5, .ok = true},   // done before
      {.due = 0.8, .sent = 0.8, .completed = 1.2, .ok = true},   // open
      {.due = 1.0, .sent = 1.0, .completed = 1.1, .ok = true},   // the last send
      {.due = 0.9, .sent = 0.9, .completed = 0.95, .ok = false}};  // failed
  EXPECT_EQ(backlogAtLastSend(rs), 3u);
  // 100 req/s with a 20 ms limit: up to 2 queued requests is not growth.
  EXPECT_FALSE(backlogGrows(2, 100.0, 0.02));
  EXPECT_TRUE(backlogGrows(3, 100.0, 0.02));
  EXPECT_FALSE(backlogGrows(1, 10.0, 0.02));  // floor of one request
}

TEST(MaxRate, InterpolatesTheLimitCrossingBetweenRungs) {
  const double limit = 0.010;
  const std::vector<StepOutcome> ladder = {
      {100, 0.001, false}, {200, 0.004, false}, {400, 0.016, false}};
  // log-linear between (200, 4 ms) and (400, 16 ms): 10 ms is at
  // log(10/4)/log(16/4) = 0.661 of the way.
  const double expect = 200 + 200 * std::log(2.5) / std::log(4.0);
  EXPECT_NEAR(maxSustainedRate(ladder, limit), expect, 1e-9);
}

TEST(MaxRate, TopRungThatMeetsTheLimitIsReportedAsIs) {
  const std::vector<StepOutcome> ladder = {{100, 0.001, false},
                                           {200, 0.002, false}};
  EXPECT_DOUBLE_EQ(maxSustainedRate(ladder, 0.01), 200.0);
}

TEST(MaxRate, BacklogOrFailureFailsARungWithoutInterpolation) {
  const std::vector<StepOutcome> backlog = {{100, 0.001, false},
                                            {200, 0.002, true}};
  EXPECT_DOUBLE_EQ(maxSustainedRate(backlog, 0.01), 100.0);
  const std::vector<StepOutcome> failed = {{100, 0.001, false},
                                           {200, kInf, false}};
  EXPECT_DOUBLE_EQ(maxSustainedRate(failed, 0.01), 100.0);
}

TEST(MaxRate, HighestPassingRungWinsOverALowerStall) {
  // A stalled middle rung does not cap the rate; a passing higher one counts.
  const std::vector<StepOutcome> ladder = {
      {100, 0.001, false}, {200, 0.050, false}, {300, 0.002, false},
      {400, 0.020, false}};
  const double expect = 300 + 100 * std::log(5.0) / std::log(10.0);
  EXPECT_NEAR(maxSustainedRate(ladder, 0.01), expect, 1e-9);
  const std::vector<StepOutcome> none = {{100, 0.5, false}};
  EXPECT_DOUBLE_EQ(maxSustainedRate(none, 0.01), 0.0);
}

}  // namespace
}  // namespace perfbench
