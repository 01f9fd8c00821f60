#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(ExactPercentile, ReturnsNearestRankSample) {
  const std::vector<int64_t> samples = {50, 10, 40, 20, 30};
  EXPECT_EQ(ExactPercentile(samples, 50), 30);
  EXPECT_EQ(ExactPercentile(samples, 99), 50);
  EXPECT_EQ(ExactPercentile(samples, 20), 10);
  EXPECT_EQ(ExactPercentile(samples, 21), 20);
  EXPECT_EQ(ExactPercentile(samples, 0), 10);
  EXPECT_EQ(ExactPercentile(samples, 100), 50);
}

TEST(ExactPercentile, ResolvesDifferencesFinerThanHistogramBuckets) {
  // 1300 ms and 1350 ms share a LatencyHistogram bucket; the exact
  // percentile still tells them apart.
  std::vector<int64_t> samples(100, 1'300'000);
  EXPECT_EQ(ExactPercentile(samples, 99), 1'300'000);
  samples.back() = 1'350'000;
  samples[98] = 1'350'000;
  EXPECT_EQ(ExactPercentile(samples, 99), 1'350'000);
}

TEST(ExactPercentile, EmptyIsZero) { EXPECT_EQ(ExactPercentile({}, 50), 0); }

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Ratio, ZeroDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(Ratio(0, 0), 0.0);
}

TEST(OkLatencies, SkipsFailedOpsAndOtherType) {
  const std::vector<OpSample> ops = {
      {false, true, 10}, {false, false, 5}, {true, true, 70}, {false, true, 20}};
  EXPECT_EQ(OkLatencies(ops, false), (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(OkLatencies(ops, true), (std::vector<int64_t>{70}));
}

TEST(OkRatio, DenominatorIsOpsAttempted) {
  const std::vector<OpSample> ops = {
      {false, true, 10}, {false, false, 5}, {true, true, 70}, {true, false, 1}};
  EXPECT_DOUBLE_EQ(OkRatio(ops), 0.5);
}

TEST(SloMetRatio, FailedOpCountsAsMissAndDenominatorIsAttempted) {
  const LatencyLimits limits{15, 100};
  const std::vector<OpSample> ops = {
      {false, true, 10},   // met
      {false, true, 15},   // met: at the limit
      {false, true, 16},   // missed: too slow
      {false, false, 1},   // missed: failed, however fast
      {true, true, 90},    // met under the write limit
      {true, false, 50},   // missed: failed write
  };
  EXPECT_DOUBLE_EQ(SloMetRatio(ops, limits), 3.0 / 6.0);
}

TEST(SloMetRatio, AllFailedIsZero) {
  const std::vector<OpSample> ops = {{false, false, 1}, {true, false, 1}};
  EXPECT_DOUBLE_EQ(SloMetRatio(ops, LatencyLimits{1000, 1000}), 0.0);
}

}  // namespace
}  // namespace perfbench
