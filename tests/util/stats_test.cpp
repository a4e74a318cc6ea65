#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dac::util {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Samples, MeanAndStddevMatchRunningStats) {
  Samples smp;
  RunningStats rs;
  for (double x : {1.0, 2.0, 3.5, 8.25, -1.0}) {
    smp.add(x);
    rs.add(x);
  }
  EXPECT_NEAR(smp.mean(), rs.mean(), 1e-12);
  EXPECT_NEAR(smp.stddev(), rs.stddev(), 1e-12);
}

TEST(Samples, PercentileEndpoints) {
  Samples s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (double x : {0.0, 10.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
  EXPECT_DOUBLE_EQ(s.percentile(75), 7.5);
}

TEST(Samples, PercentileClampsOutOfRange) {
  Samples s;
  s.add(5.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.percentile(-10), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(250), 6.0);
}

TEST(Samples, EmptyIsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Samples, UnsortedInputSortsForPercentile) {
  Samples s;
  for (double x : {9.0, 1.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(LogHistogram, CountMeanMinMaxAreExact) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(LogHistogram, PercentilesTrackSamplesWithinABucket) {
  // Spread over six decades, as RPC latencies in ms are.
  LogHistogram h;
  Samples exact;
  double x = 0.003;
  for (int i = 0; i < 5000; ++i) {
    h.add(x);
    exact.add(x);
    x = std::fmod(x * 1.37 + 0.011, 3000.0);
  }
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0}) {
    const double want = exact.percentile(p);
    EXPECT_NEAR(h.percentile(p), want, want / 16.0 + 1e-3) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100), exact.max());
  EXPECT_DOUBLE_EQ(h.percentile(0), exact.min());
}

TEST(LogHistogram, ZeroAndOutOfRangeValuesStayInBounds) {
  LogHistogram h;
  h.add(0.0);
  h.add(0.0);
  h.add(1e9);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1e9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

}  // namespace
}  // namespace dac::util
