//===-- perfbench/stats_test.cpp - Benchmark statistics tests -------------===//

#include "stats.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace mself::perfbench;

namespace {

std::vector<double> iota(int From, int To) {
  std::vector<double> Xs;
  for (int I = From; I <= To; ++I)
    Xs.push_back(I);
  return Xs;
}

} // namespace

TEST(PerfbenchStats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(PerfbenchStats, TailKeepsTenSamplesBeyond) {
  Tail T = tailPercentile(iota(1, 100));
  EXPECT_DOUBLE_EQ(T.Value, 90); // 91..100 lie beyond it.
  EXPECT_EQ(T.Beyond, 10);
  EXPECT_EQ(T.Samples, 100);
  EXPECT_DOUBLE_EQ(T.Percentile, 90);

  std::vector<double> Xs = iota(1, 100);
  Xs.push_back(1000); // One outlier moves the tail by one rank only.
  T = tailPercentile(Xs);
  EXPECT_DOUBLE_EQ(T.Value, 91);
  EXPECT_DOUBLE_EQ(T.Percentile, 90);
}

TEST(PerfbenchStats, TailClimbsTheLadderOnlyWithTenBeyond) {
  Tail T = tailPercentile(iota(1, 1000));
  EXPECT_DOUBLE_EQ(T.Percentile, 99);
  EXPECT_DOUBLE_EQ(T.Value, 990);
  EXPECT_EQ(T.Beyond, 10);

  T = tailPercentile(iota(1, 999)); // p99 would leave 9 beyond.
  EXPECT_DOUBLE_EQ(T.Percentile, 90);
  EXPECT_DOUBLE_EQ(T.Value, 900);
  EXPECT_EQ(T.Beyond, 99);

  T = tailPercentile(iota(1, 99)); // p90 would leave 9 beyond.
  EXPECT_DOUBLE_EQ(T.Percentile, 50);
  EXPECT_DOUBLE_EQ(T.Value, 50);
  EXPECT_EQ(T.Beyond, 49);
}

TEST(PerfbenchStats, TailIgnoresInputOrder) {
  std::vector<double> Xs = iota(1, 25);
  std::swap(Xs[0], Xs[24]);
  std::swap(Xs[3], Xs[17]);
  std::swap(Xs[9], Xs[12]);
  Tail T = tailPercentile(Xs);
  EXPECT_DOUBLE_EQ(T.Value, 13); // p50: rank ceil(12.5) = 13.
  EXPECT_EQ(T.Beyond, 12);
}

TEST(PerfbenchStats, TailWithTooFewSamplesReportsMax) {
  Tail T = tailPercentile({3, 9, 1});
  EXPECT_DOUBLE_EQ(T.Value, 9);
  EXPECT_EQ(T.Beyond, 0);
  EXPECT_EQ(T.Samples, 3);

  std::vector<double> Xs = iota(1, 19); // p50 would leave 9 beyond.
  Xs[4] = 80;
  T = tailPercentile(Xs);
  EXPECT_DOUBLE_EQ(T.Value, 80);
  EXPECT_EQ(T.Beyond, 0);

  T = tailPercentile(iota(10, 29)); // Twenty samples reach p50.
  EXPECT_DOUBLE_EQ(T.Value, 19);
  EXPECT_EQ(T.Beyond, 10);

  T = tailPercentile({});
  EXPECT_EQ(T.Samples, 0);
  EXPECT_DOUBLE_EQ(T.Value, 0);
}

TEST(PerfbenchStats, Geomean) {
  EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
  EXPECT_NEAR(geomean({1, 10, 100}), 10, 1e-12);
  EXPECT_NEAR(geomean({0.5}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
  EXPECT_DOUBLE_EQ(geomean({4, 0}), 0);
  EXPECT_DOUBLE_EQ(geomean({4, -1}), 0);
}

TEST(PerfbenchStats, ErrorRate) {
  EXPECT_DOUBLE_EQ(errorRate(0, 40), 0);
  EXPECT_DOUBLE_EQ(errorRate(10, 40), 0.25);
  EXPECT_DOUBLE_EQ(errorRate(0, 0), 1);
  EXPECT_DOUBLE_EQ(errorRate(3, 0), 1);
}

TEST(PerfbenchStats, HostScale) {
  // A host running the calibration 25% slow reads times 0.8 of raw.
  EXPECT_DOUBLE_EQ(hostScale(2, 2.5), 0.8);
  EXPECT_DOUBLE_EQ(hostScale(2, 2), 1);
  EXPECT_DOUBLE_EQ(hostScale(2, 0), 1);
  EXPECT_DOUBLE_EQ(hostScale(0, 2), 1);
  EXPECT_DOUBLE_EQ(hostScale(2, -1), 1);
}
